package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"photonrail/internal/scenario"
)

// parseDims registers the dimension flags on a fresh flag set and
// parses args into them.
func parseDims(t *testing.T, args ...string) *dimensions {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := registerDims(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return d
}

func specFromArgs(t *testing.T, args ...string) (scenario.Spec, error) {
	t.Helper()
	spec, err := parseDims(t, args...).spec("")
	if err == nil {
		if _, rerr := spec.Resolve(); rerr != nil {
			t.Fatalf("returned spec does not resolve: %v", rerr)
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
	p, err := parseParallelism("4:2:2")
	if err != nil || (p != scenario.Parallelism{TP: 4, DP: 2, PP: 2}) {
		t.Errorf("got %+v, %v", p, err)
	}
	p, err = parseParallelism("4:1:2:2:1")
	if err != nil || p.CP != 2 || p.EP != 1 {
		t.Errorf("5D got %+v, %v", p, err)
	}
	for _, bad := range []string{"", "4", "4:2", "4:2:2:2:2:2", "4:x:2"} {
		if _, err := parseParallelism(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestPrintCatalog(t *testing.T) {
	var out bytes.Buffer
	printCatalog(&out)
	for _, want := range []string{"fig8-5d", "Llama3-8B", "A100", "provisioned", "GPipe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestWithTimeout(t *testing.T) {
	ctx, cancel := withTimeout(testContext(t), time.Hour)
	if _, ok := ctx.Deadline(); !ok {
		t.Error("positive timeout produced no deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the deadline context")
	}
	ctx, cancel = withTimeout(testContext(t), 0)
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero timeout produced a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the plain context")
	}
}

func TestWithTimeoutInheritsParentCancellation(t *testing.T) {
	parent, stop := context.WithCancel(testContext(t))
	ctx, cancel := withTimeout(parent, time.Hour)
	defer cancel()
	stop()
	select {
	case <-ctx.Done():
	default:
		t.Error("cancelling the parent did not cancel the derived context")
	}
}

// TestDefaultGridName: a built-in grid experiment's name seeds the
// axes the flags overlay, and an explicit -grid wins over it.
func TestDefaultGridName(t *testing.T) {
	spec, err := parseDims(t).spec("fig8-5d")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig8-5d" {
		t.Errorf("defaulted grid = %q, want fig8-5d", spec.Name)
	}
	spec, err = parseDims(t, "-grid", "fig8-5d", "-latencies", "7").spec("other")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig8-5d" || !reflect.DeepEqual(spec.LatenciesMS, []float64{7}) {
		t.Errorf("spec = %+v", spec)
	}
}

func TestSweepParams(t *testing.T) {
	p, err := parseDims(t, "-latencies", "0, 10,100.5", "-iters", "3").sweepParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations != 3 || !reflect.DeepEqual(p.LatenciesMS, []float64{0, 10, 100.5}) {
		t.Errorf("params = %+v", p)
	}
	if p, err := parseDims(t).sweepParams(); err != nil || p.LatenciesMS != nil {
		t.Errorf("no -latencies = %v, %v; want nil (the registry default)", p.LatenciesMS, err)
	}
	for _, bad := range []string{"zzz", "1,x", "-1"} {
		if _, err := parseDims(t, "-latencies", bad).sweepParams(); err == nil {
			t.Errorf("latencies %q accepted", bad)
		}
	}
}

func TestCheckFormat(t *testing.T) {
	for _, ok := range []string{"table", "csv", "json"} {
		if err := checkFormat(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	if err := checkFormat("yaml"); err == nil {
		t.Error("yaml accepted")
	}
}
