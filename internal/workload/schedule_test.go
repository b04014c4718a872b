package workload

import (
	"testing"
	"testing/quick"
)

func TestScheduleGPipe(t *testing.T) {
	ops := scheduleGPipe(3)
	want := []struct {
		fwd bool
		mb  int
	}{
		{true, 0}, {true, 1}, {true, 2}, {false, 2}, {false, 1}, {false, 0},
	}
	if len(ops) != len(want) {
		t.Fatalf("len = %d", len(ops))
	}
	for i, w := range want {
		if ops[i].fwd != w.fwd || ops[i].mb != w.mb {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], w)
		}
	}
}

// Property: both schedules run every microbatch exactly once forward and
// once backward, and never run a backward before its own forward.
func TestScheduleProperty(t *testing.T) {
	f := func(sSel, ppSel, mSel uint8) bool {
		pp := int(ppSel%8) + 1
		s := int(sSel) % pp
		m := int(mSel%16) + pp // at least pp microbatches
		for _, ops := range [][]pipeOp{schedule1F1B(s, pp, m), scheduleGPipe(m)} {
			fwdAt := make(map[int]int)
			bwdAt := make(map[int]int)
			for i, op := range ops {
				if op.fwd {
					if _, dup := fwdAt[op.mb]; dup {
						return false
					}
					fwdAt[op.mb] = i
				} else {
					if _, dup := bwdAt[op.mb]; dup {
						return false
					}
					bwdAt[op.mb] = i
				}
			}
			if len(fwdAt) != m || len(bwdAt) != m {
				return false
			}
			for mb, bi := range bwdAt {
				if fwdAt[mb] > bi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGPipeWorkloadRuns(t *testing.T) {
	cfg := paperConfig(t, 1)
	cfg.Schedule = GPipe
	p := MustBuild(cfg)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same op counts as 1F1B, different order.
	p1 := MustBuild(paperConfig(t, 1))
	if n, n1 := collectives(p), collectives(p1); n != n1 {
		t.Errorf("GPipe collectives = %d, 1F1B = %d", n, n1)
	}
	if len(p.Tasks) != len(p1.Tasks) {
		t.Errorf("GPipe tasks = %d, 1F1B = %d", len(p.Tasks), len(p1.Tasks))
	}
}

// collectives counts p's communication tasks.
func collectives(p *Program) int {
	n := 0
	for _, t := range p.Tasks {
		if t.IsCollective() {
			n++
		}
	}
	return n
}

func TestScheduleString(t *testing.T) {
	if OneFOneB.String() != "1F1B" || GPipe.String() != "GPipe" || Schedule(9).String() == "" {
		t.Error("Schedule strings wrong")
	}
}
