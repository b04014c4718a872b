package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe to read while serve writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServe runs `opusctl serve` on a loopback port and returns the
// banner and the controller's address; cleanup stops it through the
// stop channel and checks that serve returns cleanly.
func startServe(t *testing.T) (banner, addr string) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-latency", "1"}, &out, stop) }()
	t.Cleanup(func() {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	listenRE := regexp.MustCompile(`listening on (\S+) `)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return out.String(), m[1]
		}
		select {
		case err := <-done:
			done <- err
			t.Fatalf("serve exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never reported listening")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeStatsDemo drives the three subcommands against one
// controller: a fresh controller reports no reconfigurations, the demo
// runs its four phases, and stats then counts the demo's circuits.
func TestServeStatsDemo(t *testing.T) {
	banner, addr := startServe(t)
	if want := "(16 GPUs (4 nodes x 4), NIC 2x200Gbps, latency 1ms)\n"; !strings.HasSuffix(banner, want) {
		t.Errorf("banner = %q, want suffix %q", banner, want)
	}

	var before strings.Builder
	if err := run([]string{"stats", "-addr", addr}, &before, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(before.String(), "reconfigurations:     0\n") ||
		!strings.Contains(before.String(), "provisioned requests: 0\n") {
		t.Errorf("fresh stats:\n%s", before.String())
	}

	var demoOut strings.Builder
	if err := run([]string{"demo", "-addr", addr}, &demoOut, nil); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"AllGather", "pipeline", "ReduceScatter", "sync"} {
		if !regexp.MustCompile(`(?m)^phase ` + phase + ` +done$`).MatchString(demoOut.String()) {
			t.Errorf("demo output lacks phase %s:\n%s", phase, demoOut.String())
		}
	}
	if !regexp.MustCompile(`(?m)^controller: [1-9]\d* reconfigurations, \d+ fast grants, \d+ queued$`).MatchString(demoOut.String()) {
		t.Errorf("demo summary:\n%s", demoOut.String())
	}

	var after strings.Builder
	if err := run([]string{"stats", "-addr", addr}, &after, nil); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(after.String(), "reconfigurations:     0\n") {
		t.Errorf("stats after demo show no reconfigurations:\n%s", after.String())
	}
}

func TestRunRefusesBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"restart"},
		{"stats", "-bogus"},
		{"serve", "-nodes", "0", "-addr", "127.0.0.1:0"},
		{"stats", "-addr", "127.0.0.1:1"},
	} {
		var out strings.Builder
		if err := run(args, &out, nil); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
	// -h prints the usage and is not a failure.
	if err := run([]string{"demo", "-h"}, &strings.Builder{}, nil); err != nil {
		t.Errorf("demo -h: %v", err)
	}
}
