package parallelism

// Recommendation is one rule-of-thumb strategy combination from Table 1,
// expressed as the set of axes to combine (degrees are workload-specific).
type Recommendation []Axis

// Plan returns the Table 1 rule-of-thumb parallelism strategies for a
// model of modelParams parameters trained on n GPUs:
//
//	Small (<10B),  N ≤ 8:            TP or DP
//	Large (>10B),  8 < N ≤ 512:      TP & PP, TP & DP, or DP
//	Large (>10B),  512 < N ≤ 1024:   DP & PP, or DP & TP
//	Large (>10B),  N > 1024:         TP, DP & PP
//
// Model sizes below 10B on more than 8 GPUs fall back to the large-model
// rules (the table's rows are indexed by compute once N > 8).
func Plan(modelParams int64, n int) []Recommendation {
	const tenB = 10_000_000_000
	small := modelParams < tenB
	switch {
	case n <= 8 && small:
		return []Recommendation{{TP}, {DP}}
	case n <= 512:
		return []Recommendation{{TP, PP}, {TP, DP}, {DP}}
	case n <= 1024:
		return []Recommendation{{DP, PP}, {DP, TP}}
	default:
		return []Recommendation{{TP, DP, PP}}
	}
}

// MaxSimultaneousScaleOutAxes returns how many scale-out parallelism axes
// a GPU can serve with *static* circuits, given its NIC port count and
// ring collectives (two ports per ring). This is constraint C2 of the
// paper: with a 4-port NIC, at most two scale-out axes fit, so adding CP
// to a DP+PP job "would be infeasible without additional NICs or
// switching hardware".
func MaxSimultaneousScaleOutAxes(nicPorts int) int { return nicPorts / 2 }
