package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// Property: for any random span sequence on a rail,
//
//   - phases partition the spans, adjacent phases have different keys;
//   - window i lies between phases i and i+1: it ends at phase i+1,
//     and its size equals that phase's start minus phase i's end;
//   - phase byte totals equal the sum of member span bytes.
func TestPhaseWindowConsistencyProperty(t *testing.T) {
	keys := []PhaseKey{
		{parallelism.FSDP, parallelism.AllGather},
		{parallelism.FSDP, parallelism.ReduceScatter},
		{parallelism.PP, parallelism.SendRecv},
		{parallelism.CP, parallelism.AllGather},
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		count := int(n%60) + 1
		now := units.Duration(0)
		for i := 0; i < count; i++ {
			k := keys[rng.Intn(len(keys))]
			start := now + units.Duration(rng.Int63n(int64(10*units.Millisecond)))
			end := start + units.Duration(rng.Int63n(int64(5*units.Millisecond))+1)
			now = end
			tr.Add(Span{
				Label: "op", Axis: k.Axis, Kind: k.Kind,
				Group: k.String(), Rail: 0,
				Start: start, End: end,
				Bytes: units.ByteSize(rng.Int63n(1 << 20)),
			})
		}
		phases := tr.Phases(0, 0)
		total := 0
		var totalBytes units.ByteSize
		for i, p := range phases {
			total += len(p.Spans)
			var phaseBytes units.ByteSize
			for _, s := range p.Spans {
				if phaseKey(s) != p.Key {
					return false
				}
				phaseBytes += s.Bytes
			}
			if phaseBytes != p.Bytes {
				return false
			}
			totalBytes += phaseBytes
			if i > 0 && phases[i-1].Key == p.Key {
				return false // adjacent phases must differ
			}
		}
		var railBytes units.ByteSize
		for _, s := range tr.RailSpans(0, 0) {
			railBytes += s.Bytes
		}
		if total != count || totalBytes != railBytes {
			return false
		}
		ws := tr.Windows(0, 0)
		if len(ws) != maxInt(0, len(phases)-1) {
			return false
		}
		for i, w := range ws {
			next := phases[i+1]
			if w.After.Key != next.Key || w.After.Start != next.Start || w.Size != next.Start-phases[i].End {
				return false
			}
			if w.AfterBytes != w.After.Bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Property: window extraction is independent of span insertion order.
func TestWindowOrderInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var spans []Span
		now := units.Duration(0)
		for i := 0; i < 20; i++ {
			k := parallelism.AllGather
			axis := parallelism.FSDP
			if i%3 == 1 {
				k, axis = parallelism.SendRecv, parallelism.PP
			}
			start := now + units.Duration(rng.Int63n(int64(3*units.Millisecond)))
			end := start + units.Millisecond
			now = end
			spans = append(spans, Span{
				Label: "op", Axis: axis, Kind: k, Group: "g", Rail: topo.RailID(0),
				Start: start, End: end, Bytes: units.MB,
			})
		}
		a := &Trace{}
		for _, s := range spans {
			a.Add(s)
		}
		b := &Trace{}
		for _, i := range rng.Perm(len(spans)) {
			b.Add(spans[i])
		}
		wa, wb := a.Windows(0, 0), b.Windows(0, 0)
		if len(wa) != len(wb) {
			return false
		}
		for i := range wa {
			if wa[i].Size != wb[i].Size || wa[i].AfterBytes != wb[i].AfterBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
