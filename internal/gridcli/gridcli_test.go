package gridcli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/scenario"
)

func specFromArgs(t *testing.T, args ...string) (scenario.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	spec, g, err := d.Spec()
	if err == nil {
		// The returned grid is the spec's resolution — callers rely on
		// them agreeing.
		want, rerr := spec.Resolve()
		if rerr != nil {
			t.Fatalf("returned spec does not resolve: %v", rerr)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("returned grid diverges from spec resolution")
		}
	}
	return spec, err
}

func TestSpecFromFlags(t *testing.T) {
	spec, err := specFromArgs(t,
		"-models", "Llama3-8B", "-fabrics", "electrical,photonic",
		"-latencies", "5,20", "-par", "4:2:2,4:1:2:2", "-nic", "2x200", "-iters", "3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "custom" {
		t.Errorf("name = %q", spec.Name)
	}
	if len(spec.Parallelisms) != 2 || spec.Parallelisms[1].CP != 2 {
		t.Errorf("parallelisms = %+v", spec.Parallelisms)
	}
	if spec.NICPorts != 2 || spec.NICPerPortBps != 200e9 {
		t.Errorf("nic = %d x %d bps", spec.NICPorts, spec.NICPerPortBps)
	}
	if spec.Iterations != 3 {
		t.Errorf("iterations = %d", spec.Iterations)
	}
	if _, err := spec.Resolve(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecNamedGridWithOverrides(t *testing.T) {
	spec, err := specFromArgs(t, "-grid", "fig8-5d", "-latencies", "7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig8-5d" {
		t.Errorf("name = %q", spec.Name)
	}
	if len(spec.LatenciesMS) != 1 || spec.LatenciesMS[0] != 7 {
		t.Errorf("latencies = %v, want the override", spec.LatenciesMS)
	}
	if len(spec.Models) != 2 {
		t.Errorf("models = %v, want the named grid's", spec.Models)
	}
}

func TestSpecRejectsBadDimensions(t *testing.T) {
	cases := [][]string{
		{"-grid", "nope"},
		{"-models", "GPT-17"},
		{"-gpus", "TPU"},
		{"-fabrics", "teleport"},
		{"-latencies", "x"},
		{"-latencies", "-4"},
		{"-par", "4:2"},
		{"-schedules", "zigzag"},
		{"-jitters", "2"},
		{"-eager", "maybe"},
		{"-nic", "3x133"},
	}
	for _, args := range cases {
		if _, err := specFromArgs(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseParallelism(t *testing.T) {
	p, err := ParseParallelism("4:2:2")
	if err != nil || (p != scenario.Parallelism{TP: 4, DP: 2, PP: 2}) {
		t.Errorf("got %+v, %v", p, err)
	}
	p, err = ParseParallelism("4:1:2:2:1")
	if err != nil || p.CP != 2 || p.EP != 1 {
		t.Errorf("5D got %+v, %v", p, err)
	}
	for _, bad := range []string{"", "4", "4:2", "4:2:2:2:2:2", "4:x:2"} {
		if _, err := ParseParallelism(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestPrintCatalog(t *testing.T) {
	var out bytes.Buffer
	PrintCatalog(&out)
	for _, want := range []string{"fig8-5d", "Llama3-8B", "A100", "provisioned", "GPipe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestWithTimeout(t *testing.T) {
	ctx, cancel := WithTimeout(t.Context(), time.Hour)
	if _, ok := ctx.Deadline(); !ok {
		t.Error("positive timeout produced no deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the deadline context")
	}
	ctx, cancel = WithTimeout(t.Context(), 0)
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero timeout produced a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the plain context")
	}
}

func TestWithTimeoutInheritsParentCancellation(t *testing.T) {
	parent, stop := context.WithCancel(t.Context())
	ctx, cancel := WithTimeout(parent, time.Hour)
	defer cancel()
	stop()
	select {
	case <-ctx.Done():
	default:
		t.Error("cancelling the parent did not cancel the derived context")
	}
}

func TestRunExperiments(t *testing.T) {
	en := photonrail.NewEngine(1)
	var text, csv bytes.Buffer
	if err := RunExperiments(context.Background(), en, []string{"table1", "table3"}, photonrail.Params{}, false, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Table 1") || !strings.Contains(text.String(), "Table 3") {
		t.Errorf("text output = %.120q", text.String())
	}
	if err := RunExperiments(context.Background(), en, []string{"table1"}, photonrail.Params{}, true, &csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), ",") {
		t.Errorf("csv output = %.120q", csv.String())
	}
	if err := RunExperiments(context.Background(), en, []string{"nope"}, photonrail.Params{}, false, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not registered") {
		t.Errorf("unknown experiment error = %v", err)
	}
}

func TestDefaultGridName(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	d.DefaultGridName("fig8-5d")
	spec, _, err := d.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig8-5d" {
		t.Errorf("defaulted grid = %q, want fig8-5d", spec.Name)
	}
	// An explicit -grid wins over the default.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	d2 := Register(fs2)
	if err := fs2.Parse([]string{"-grid", "fig8-5d", "-latencies", "7"}); err != nil {
		t.Fatal(err)
	}
	d2.DefaultGridName("other")
	spec2, _, err := d2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Name != "fig8-5d" || !reflect.DeepEqual(spec2.LatenciesMS, []float64{7}) {
		t.Errorf("spec = %+v", spec2)
	}
}

func TestSweepParams(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := Register(fs)
	if err := fs.Parse([]string{"-latencies", "0,10", "-iters", "3"}); err != nil {
		t.Fatal(err)
	}
	p, err := d.SweepParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations != 3 || !reflect.DeepEqual(p.LatenciesMS, []float64{0, 10}) {
		t.Errorf("params = %+v", p)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	d2 := Register(fs2)
	if err := fs2.Parse([]string{"-latencies", "zzz"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.SweepParams(); err == nil {
		t.Error("bad latency accepted")
	}
}

func TestCheckFormat(t *testing.T) {
	for _, ok := range []string{"table", "csv", "json"} {
		if err := CheckFormat(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	if err := CheckFormat("yaml"); err == nil {
		t.Error("yaml accepted")
	}
}
