package trace

import (
	"testing"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

const ms = units.Millisecond

func span(label string, axis parallelism.Axis, kind parallelism.CollectiveKind,
	group string, rail topo.RailID, start, end units.Duration, bytes units.ByteSize, iter int) Span {
	return Span{
		Label: label, Axis: axis, Kind: kind, Group: group, Rail: rail,
		Start: start, End: end, Bytes: bytes, Iteration: iter,
	}
}

// buildRail0Trace builds a miniature iteration on rail 0 shaped like
// Fig. 3(a): AG burst, PP send, AG burst (stage 1), PP traffic, RS burst,
// sync ARs.
func buildRail0Trace() *Trace {
	tr := &Trace{}
	// FSDP AllGather burst (stage 0): 2 layers back-to-back.
	tr.Add(span("AG L0", parallelism.FSDP, parallelism.AllGather, "fsdp.s0", 0, 0, 2*ms, 100*units.MB, 0))
	tr.Add(span("AG L1", parallelism.FSDP, parallelism.AllGather, "fsdp.s0", 0, 2*ms, 4*ms, 100*units.MB, 0))
	// Window: 4..304 (compute) then PP send.
	tr.Add(span("SR mb0", parallelism.PP, parallelism.SendRecv, "pp.d0", 0, 304*ms, 307*ms, 64*units.MB, 0))
	// Stage-1 AG immediately after (lazy DTensor): window ≈ 1ms.
	tr.Add(span("AG L0 s1", parallelism.FSDP, parallelism.AllGather, "fsdp.s1", 0, 308*ms, 310*ms, 100*units.MB, 0))
	// Backward, then RS burst after a large window.
	tr.Add(span("RS L1", parallelism.FSDP, parallelism.ReduceScatter, "fsdp.s0", 0, 1310*ms, 1315*ms, 400*units.MB, 0))
	tr.Add(span("RS L0", parallelism.FSDP, parallelism.ReduceScatter, "fsdp.s0", 0, 1315*ms, 1320*ms, 400*units.MB, 0))
	// Sync ARs.
	tr.Add(span("AR norm", parallelism.PP, parallelism.AllReduce, "pp.sync", 0, 1322*ms, 1323*ms, 2*units.KB, 0))
	tr.Add(span("AR loss", parallelism.FSDP, parallelism.AllReduce, "fsdp.s0", 0, 1325*ms, 1326*ms, 2*units.KB, 0))
	return tr
}

func TestPhaseSegmentation(t *testing.T) {
	tr := buildRail0Trace()
	phases := tr.Phases(0, 0)
	// AG(s0) | SR | AG(s1) | RS | AR(pp) | AR(dp): AG s0 and AG s1 are
	// one key but separated by SR, so 6 phases.
	if len(phases) != 6 {
		for i, p := range phases {
			t.Logf("phase %d: %v spans=%d", i, p.Key, len(p.Spans))
		}
		t.Fatalf("got %d phases, want 6", len(phases))
	}
	if phases[0].Key != (PhaseKey{parallelism.FSDP, parallelism.AllGather}) {
		t.Errorf("phase 0 key = %v", phases[0].Key)
	}
	if phases[0].Bytes != 200*units.MB || len(phases[0].Spans) != 2 {
		t.Errorf("phase 0: bytes=%v spans=%d", phases[0].Bytes, len(phases[0].Spans))
	}
	if phases[0].Start != 0 || phases[0].End != 4*ms {
		t.Errorf("phase 0 bounds = %v..%v", phases[0].Start, phases[0].End)
	}
	// AR phases split on axis even though both are AllReduce.
	if phases[4].Key.Axis != parallelism.PP || phases[5].Key.Axis != parallelism.FSDP {
		t.Errorf("sync AR phases = %v, %v", phases[4].Key, phases[5].Key)
	}
}

func TestWindowExtraction(t *testing.T) {
	tr := buildRail0Trace()
	ws := tr.Windows(0, 0)
	if len(ws) != 5 {
		t.Fatalf("got %d windows, want 5", len(ws))
	}
	// Window 0: AG end (4ms) to SR start (304ms) = 300ms.
	if ws[0].Size != 300*ms {
		t.Errorf("window 0 = %v, want 300ms", ws[0].Size)
	}
	// Window 2: SR(307) .. wait, window 1: SR end 307 -> AG s1 start 308 = 1ms.
	if ws[1].Size != 1*ms {
		t.Errorf("window 1 = %v, want 1ms", ws[1].Size)
	}
	// Window before the RS burst is the big one: 310 -> 1310 = 1000ms.
	if ws[2].Size != 1000*ms {
		t.Errorf("window 2 (before RS) = %v, want 1000ms", ws[2].Size)
	}
	if ws[2].After.Bytes != 800*units.MB {
		t.Errorf("window 2 after-bytes = %v", ws[2].After.Bytes)
	}
	// Window 0 ends where the PP send's phase begins.
	if ws[0].After.Key != (PhaseKey{parallelism.PP, parallelism.SendRecv}) {
		t.Errorf("window 0 ends at phase %v, want PP/SR", ws[0].After.Key)
	}
}

func TestBiggestWindowPrecedesBiggestTraffic(t *testing.T) {
	// The paper's §3.1 observation: the biggest traffic volume
	// (ReduceScatter) is preceded by the largest window.
	tr := buildRail0Trace()
	ws := tr.Windows(0, 0)
	var maxSize units.Duration
	var maxBytes units.ByteSize
	var sizeOfMaxBytes units.Duration
	for _, w := range ws {
		if w.Size > maxSize {
			maxSize = w.Size
		}
		if w.After.Bytes > maxBytes {
			maxBytes = w.After.Bytes
			sizeOfMaxBytes = w.Size
		}
	}
	if sizeOfMaxBytes != maxSize {
		t.Errorf("largest window (%v) should precede largest traffic (window %v)", maxSize, sizeOfMaxBytes)
	}
}

func TestOverlappingPhasesNegativeWindow(t *testing.T) {
	// Fig. 3(b): concurrent DP and PP traffic produce a non-positive
	// window, recorded but excluded from the CDF samples.
	tr := &Trace{}
	tr.Add(span("SR", parallelism.PP, parallelism.SendRecv, "pp.d0", 0, 0, 10*ms, units.MB, 0))
	tr.Add(span("AG", parallelism.FSDP, parallelism.AllGather, "fsdp.s2", 0, 5*ms, 15*ms, units.MB, 0))
	ws := tr.Windows(0, 0)
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	if ws[0].Size != -5*ms {
		t.Errorf("overlap window = %v, want -5ms", ws[0].Size)
	}
	if got := WindowSizesMS(ws); len(got) != 0 {
		t.Errorf("negative window leaked into CDF samples: %v", got)
	}
}

func TestWindowSizesMS(t *testing.T) {
	tr := buildRail0Trace()
	sizes := WindowSizesMS(tr.Windows(0, 0))
	if len(sizes) != 5 {
		t.Fatalf("sizes = %v", sizes)
	}
	if sizes[0] != 300 || sizes[2] != 1000 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestRailFiltering(t *testing.T) {
	tr := &Trace{}
	tr.Add(span("a", parallelism.FSDP, parallelism.AllGather, "g", 0, 0, ms, units.MB, 0))
	tr.Add(span("b", parallelism.FSDP, parallelism.AllGather, "g", 1, 0, ms, units.MB, 0))
	tr.Add(span("tp", parallelism.TP, parallelism.AllReduce, "tp", ScaleUpRail, 0, ms, units.MB, 0))
	tr.Add(span("c", parallelism.FSDP, parallelism.AllGather, "g", 0, 2*ms, 3*ms, units.MB, 1))
	if got := len(tr.RailSpans(0, 0)); got != 1 {
		t.Errorf("rail 0 iter 0 spans = %d", got)
	}
	if got := len(tr.RailSpans(0, -1)); got != 2 {
		t.Errorf("rail 0 all spans = %d", got)
	}
	rails := tr.Rails()
	if len(rails) != 2 || rails[0] != 0 || rails[1] != 1 {
		t.Errorf("Rails() = %v (scale-up must be excluded)", rails)
	}
	if tr.Iterations() != 2 {
		t.Errorf("Iterations() = %d", tr.Iterations())
	}
}

func TestSpansSorted(t *testing.T) {
	tr := &Trace{}
	tr.Add(span("late", parallelism.PP, parallelism.SendRecv, "g", 0, 10*ms, 11*ms, units.MB, 0))
	tr.Add(span("early", parallelism.PP, parallelism.SendRecv, "g", 0, ms, 2*ms, units.MB, 0))
	spans := tr.Spans()
	if spans[0].Label != "early" || spans[1].Label != "late" {
		t.Errorf("spans not sorted: %v", spans)
	}
}

func TestClassify(t *testing.T) {
	tr := buildRail0Trace()
	ws := tr.Windows(0, 0)
	wantClasses := []string{ClassPP, ClassDPAG, ClassDPRS, ClassSyncAR, ClassSyncAR}
	for i, w := range ws {
		if got := ClassifyWindow(w); got != wantClasses[i] {
			t.Errorf("window %d class = %q, want %q", i, got, wantClasses[i])
		}
	}
	// A large non-DP op falls in "other".
	other := &CommPhase{Key: PhaseKey{parallelism.EP, parallelism.AllToAll}, Bytes: units.GB}
	if ClassifyPhase(other) != ClassOther {
		t.Error("EP AllToAll should classify as other")
	}
	if len(Classes()) != 5 {
		t.Error("Classes() size")
	}
}

func TestPhaseKeyAndPipePhaseString(t *testing.T) {
	k := PhaseKey{parallelism.FSDP, parallelism.AllGather}
	if k.String() != "FSDP/AG" {
		t.Errorf("PhaseKey.String() = %q", k.String())
	}
	for _, p := range []PipePhase{WarmUp, Steady, CoolDown, Sync, PipePhase(9)} {
		if p.String() == "" {
			t.Error("PipePhase string empty")
		}
	}
}
