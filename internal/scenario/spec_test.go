package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"photonrail/internal/exp"
)

func TestSpecRoundTripsFig8Grid(t *testing.T) {
	g := Fig8Grid5D()
	s := SpecOf(g)
	// Through JSON, as the wire does it.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Fatalf("round trip diverged:\n in: %#v\nout: %#v", g, back)
	}
}

// TestSpecKeySurvivesTheWire: a spec keys the same after the JSON trip
// the wire gives it, where an empty list arrives as nil, so a sender and
// the daemon it asks agree on the singleflight key.
func TestSpecKeySurvivesTheWire(t *testing.T) {
	key := func(s Spec) string {
		e := exp.NewKeyEncoder("spec")
		s.AppendKey(&e)
		return e.Sum("")
	}
	s := SpecOf(Fig8Grid5D())
	s.JitterFracs, s.EagerRS = []float64{}, []bool{}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.JitterFracs != nil || key(decoded) != key(s) {
		t.Fatalf("key changed across the wire: %s -> %s", key(s), key(decoded))
	}
}

func TestSpecRoundTripsZeroGrid(t *testing.T) {
	back, err := SpecOf(Grid{Name: "z"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Grid{Name: "z"}, back) {
		t.Fatalf("zero grid round trip diverged: %#v", back)
	}
	// Both expand identically (paper defaults applied at expansion).
	if got, want := len(back.Expand()), len((Grid{Name: "z"}).Expand()); got != want {
		t.Fatalf("expansion = %d cells, want %d", got, want)
	}
}

func TestSpecResolveRejectsUnknownNames(t *testing.T) {
	cases := []Spec{
		{Models: []string{"GPT-9"}},
		{GPUs: []string{"TPU"}},
		{Fabrics: []string{"quantum"}},
		{Schedules: []string{"interleaved"}},
		{NICPorts: -1, NICPerPortBps: 1},
	}
	for i, s := range cases {
		if _, err := s.Resolve(); err == nil {
			t.Errorf("case %d: bad spec %+v resolved without error", i, s)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	for _, name := range []string{"1F1B", "GPipe"} {
		sched, ok := ParseSchedule(name)
		if !ok || sched.String() != name {
			t.Errorf("ParseSchedule(%q) = %v, %v", name, sched, ok)
		}
	}
	if _, ok := ParseSchedule("nope"); ok {
		t.Error("unknown schedule parsed")
	}
}

// TestCellCountMatchesExpand pins the arithmetic count against the
// real expansion for representative grids, and checks absurd
// cross-products clamp without allocating.
func TestCellCountMatchesExpand(t *testing.T) {
	grids := []Grid{
		{},
		{Name: "z"},
		Fig8Grid5D(),
		{Fabrics: []FabricKind{Electrical, PhotonicStatic}},
		{Fabrics: []FabricKind{Photonic, PhotonicProvisioned, Electrical}, LatenciesMS: []float64{1, 2, 3, 4}},
		{JitterFracs: []float64{0, 0.01}, EagerRS: []bool{false, true}},
	}
	for i, g := range grids {
		if got, want := g.CellCount(), len(g.Expand()); got != want {
			t.Errorf("grid %d: CellCount = %d, Expand = %d", i, got, want)
		}
	}
	// A cross-product in the billions must count (clamped) without ever
	// materializing cells — this returning at all is the point.
	huge := Grid{
		Parallelisms: make([]Parallelism, 200_000),
		LatenciesMS:  make([]float64, 200_000),
		Fabrics:      []FabricKind{Photonic},
	}
	if got := huge.CellCount(); got != 1<<31-1 {
		t.Errorf("huge grid CellCount = %d, want clamp at MaxInt32", got)
	}
}
