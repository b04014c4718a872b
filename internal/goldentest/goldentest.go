// Package goldentest compares command output against committed golden
// files, byte for byte. The cmd/ regression corpora (railclient,
// railfleet, railgate) use it to pin every output format of their
// canonical invocations; regenerate after an intentional output change
// with
//
//	go test ./cmd/... -run Golden -update
package goldentest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update is registered on the test binary's flag set: `go test -update`
// rewrites the golden files instead of comparing against them.
var update = flag.Bool("update", false, "rewrite golden files with current output")

// Updating reports whether the test run is regenerating golden files.
func Updating() bool { return *update }

// Check compares got against the golden file at path (relative to the
// test's package directory, conventionally testdata/golden/<name>).
// With -update it (re)writes the file instead and fails only on I/O
// errors, so a regeneration run always leaves a committed-ready corpus.
func Check(t *testing.T, got []byte, path string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file: %v (run `go test -update` to generate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("output diverged from %s (run `go test -update` after intentional changes)\n%s",
		path, firstDiff(got, want))
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
