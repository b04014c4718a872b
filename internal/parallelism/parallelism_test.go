package parallelism

import "testing"

// TestTable1Plan reproduces Table 1's rows.
func TestTable1Plan(t *testing.T) {
	const b = 1_000_000_000
	tests := []struct {
		params int64
		n      int
		want   []Recommendation
	}{
		{8 * b, 8, []Recommendation{{TP}, {DP}}},
		{70 * b, 512, []Recommendation{{TP, PP}, {TP, DP}, {DP}}},
		{70 * b, 1024, []Recommendation{{DP, PP}, {DP, TP}}},
		{405 * b, 8192, []Recommendation{{TP, DP, PP}}},
	}
	for _, tt := range tests {
		got := Plan(tt.params, tt.n)
		if len(got) != len(tt.want) {
			t.Errorf("Plan(%d, %d) = %v, want %v", tt.params, tt.n, got, tt.want)
			continue
		}
		for i := range tt.want {
			if len(got[i]) != len(tt.want[i]) {
				t.Errorf("Plan(%d, %d)[%d] = %v, want %v", tt.params, tt.n, i, got[i], tt.want[i])
				continue
			}
			for j := range tt.want[i] {
				if got[i][j] != tt.want[i][j] {
					t.Errorf("Plan(%d, %d)[%d][%d] = %v, want %v", tt.params, tt.n, i, j, got[i][j], tt.want[i][j])
				}
			}
		}
	}
}

// TestFeasibility checks constraint C2: static ring circuits take two
// NIC ports per scale-out axis, so a 4-port NIC serves at most two.
func TestFeasibility(t *testing.T) {
	for ports, want := range map[int]int{1: 0, 2: 1, 4: 2, 8: 4} {
		if got := MaxSimultaneousScaleOutAxes(ports); got != want {
			t.Errorf("MaxSimultaneousScaleOutAxes(%d) = %d, want %d", ports, got, want)
		}
	}
}

// TestTable2Characteristics checks Table 2's communication columns.
func TestTable2Characteristics(t *testing.T) {
	rows := AllCharacteristics()
	if len(rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 7", len(rows))
	}
	byAxis := make(map[Axis]Characteristics)
	for i, c := range rows {
		if c.Axis != Axes()[i] {
			t.Errorf("row %d is %v, want %v", i, c.Axis, Axes()[i])
		}
		byAxis[c.Axis] = c
	}
	check := func(a Axis, wantComms []Comm) {
		c := byAxis[a]
		if len(c.Comms) != len(wantComms) {
			t.Fatalf("%v has %d comms, want %d", a, len(c.Comms), len(wantComms))
		}
		for i, w := range wantComms {
			if c.Comms[i] != w {
				t.Errorf("%v comm %d = %+v, want %+v", a, i, c.Comms[i], w)
			}
		}
	}
	check(DP, []Comm{{Backward, AllReduce, PerLayer}})
	check(FSDP, []Comm{{Forward, AllGather, PerLayer}, {Backward, ReduceScatter, PerLayer}})
	check(TP, []Comm{{Forward, AllReduce, PerOperator}, {Backward, AllReduce, PerOperator}})
	check(PP, []Comm{{Forward, SendRecv, PerMicrobatch}, {Backward, SendRecv, PerMicrobatch}})
	check(EP, []Comm{{Forward, AllToAll, PerLayer}, {Backward, AllToAll, PerLayer}})
	check(CP, []Comm{{Forward, AllGather, PerLayer}, {Backward, ReduceScatter, PerLayer}})

	// Memory-reduction strings for FSDP include the parameter shard.
	found := false
	for _, m := range byAxis[FSDP].MemoryReduction {
		if m == "params/dp" {
			found = true
		}
	}
	if !found {
		t.Error("FSDP memory reduction missing params/dp")
	}
}

func TestStringers(t *testing.T) {
	if AllReduce.String() != "AR" || ReduceScatter.String() != "RS" ||
		SendRecv.String() != "Send/Recv" || AllToAll.String() != "AllToAll" ||
		AllGather.String() != "AG" {
		t.Error("CollectiveKind strings wrong")
	}
	if Forward.String() != "fwd" || Backward.String() != "bwd" {
		t.Error("Phase strings wrong")
	}
	if PerLayer.String() != "per layer" || PerOperator.String() != "per operator" ||
		PerMicrobatch.String() != "per microbatch" || PerModel.String() != "per model" {
		t.Error("Frequency strings wrong")
	}
	if TPSP.String() != "TP&SP" || Axis(99).String() == "" {
		t.Error("Axis strings wrong")
	}
}

func TestWindowCountPaperWorkload(t *testing.T) {
	// §3.1 workload: PP=2, FSDP=2, no CP/EP. Only the PP&FSDP term and
	// the 4 state transitions remain: 4(2-1) + 4 = 8 — matching the
	// visual count of circuit-configuration changes in Fig. 3(a).
	n, err := WindowCount(WindowCountConfig{PP: 2, Layers: 32, Microbatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("WindowCount(PP=2,FSDP) = %d, want 8", n)
	}
}

func TestWindowCountAllTerms(t *testing.T) {
	// With CP and EP every term contributes:
	// 4(4-1)=12, 2(8/4·... layersPerStage=2 -> 2(2-1)=2, 4·3=12,
	// 2·3·(2·2-1)=18, +4 => 48.
	n, err := WindowCount(WindowCountConfig{PP: 4, Layers: 8, Microbatches: 3, HasCP: true, HasEP: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 48 {
		t.Errorf("WindowCount = %d, want 48", n)
	}
}

func TestWindowCountNoPipeline(t *testing.T) {
	// FSDP only: just the steady/sync transitions.
	n, err := WindowCount(WindowCountConfig{PP: 1, Layers: 32, Microbatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("WindowCount(PP=1) = %d, want 2", n)
	}
}

func TestWindowCountValidation(t *testing.T) {
	bad := []WindowCountConfig{
		{PP: 0, Layers: 8, Microbatches: 1},
		{PP: 2, Layers: 0, Microbatches: 1},
		{PP: 2, Layers: 8, Microbatches: 0},
		{PP: 16, Layers: 8, Microbatches: 1},
	}
	for i, cfg := range bad {
		if _, err := WindowCount(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestWindowsPerSecond(t *testing.T) {
	// §3.1: "127 windows over one Llama3.1-405B training iteration,
	// approximately 20 seconds ... ≈ 6 windows/second".
	got := WindowsPerSecond(127, 20)
	if got < 6 || got > 6.5 {
		t.Errorf("WindowsPerSecond(127, 20) = %v, want ≈6.35", got)
	}
	if WindowsPerSecond(10, 0) != 0 {
		t.Error("zero iteration time should yield 0")
	}
}
