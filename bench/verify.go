package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"photonrail"
)

// goldenPath is the committed fig8-5d JSON every serving path must
// reproduce byte for byte (cmd/railfleet commits an identical copy).
const goldenPath = "cmd/railgate/testdata/golden/fig8-5d.json"

// maxMessages bounds the failure messages a run keeps for its report.
const maxMessages = 8

// verifier checks every response. A fig8-5d response must equal the
// library's rendering of fig8-5d, which must equal the golden corpus,
// with only the grid name changed. A grid response must name its grid;
// a seeded sample of them is kept and later compared with a fresh
// library run. A stored result read back must equal the response that
// stored it.
type verifier struct {
	fig8 fig8Golden

	mu       sync.Mutex
	keep     map[string]bool   // grids whose response bodies are kept
	kept     map[string][]byte // grid name -> response body
	failures int
	messages []string
}

// fig8Golden is the golden fig8-5d JSON split around the grid name.
type fig8Golden struct{ head, tail []byte }

// loadGolden reads the golden corpus and checks that the library's own
// fig8-5d rendering still equals it.
func loadGolden(ctx context.Context, root string) (fig8Golden, error) {
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return fig8Golden{}, fmt.Errorf("golden corpus: %w", err)
	}
	res, err := runFig8(ctx, photonrail.NewBoundedEngine(0, 4096))
	if err != nil {
		return fig8Golden{}, err
	}
	var lib bytes.Buffer
	if err := res.RenderJSON(&lib); err != nil {
		return fig8Golden{}, err
	}
	if !bytes.Equal(lib.Bytes(), golden) {
		return fig8Golden{}, fmt.Errorf("library fig8-5d rendering differs from %s", goldenPath)
	}
	if !bytes.HasPrefix(golden, gridHead("fig8-5d")) {
		return fig8Golden{}, fmt.Errorf("%s does not start with %q", goldenPath, gridHead("fig8-5d"))
	}
	name := len(`{` + "\n" + `  "grid": "`)
	return fig8Golden{head: golden[:name], tail: golden[name+len("fig8-5d"):]}, nil
}

func newVerifier(fig8 fig8Golden) *verifier {
	return &verifier{fig8: fig8, keep: make(map[string]bool), kept: make(map[string][]byte)}
}

// runFig8 runs the built-in fig8-5d grid through the library.
func runFig8(ctx context.Context, en *photonrail.Engine) (*photonrail.ExperimentResult, error) {
	e, _ := photonrail.Lookup("fig8-5d")
	res, err := e.Run(ctx, en, photonrail.Params{})
	if err != nil {
		return nil, fmt.Errorf("library fig8-5d: %w", err)
	}
	return res, nil
}

// gridHead is how a grid experiment's JSON rendering begins.
func gridHead(name string) []byte {
	return []byte("{\n  \"grid\": \"" + name + "\",\n")
}

func (v *verifier) failf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.failures++
	if len(v.messages) < maxMessages {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

// keepBodies marks grids whose response bodies check keeps.
func (v *verifier) keepBodies(reqs []request) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range reqs {
		v.keep[r.grid] = true
	}
}

func (v *verifier) body(grid string) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.kept[grid]
}

// check verifies one response; a mismatch is recorded as a failure.
func (v *verifier) check(r request, status int, body []byte) bool {
	if status != http.StatusOK {
		v.failf("%s: status %d: %.200s", r.id, status, body)
		return false
	}
	switch r.kind {
	case kindFig8:
		g, n := v.fig8, len(v.fig8.head)
		if len(body) != n+len(r.grid)+len(g.tail) || !bytes.Equal(body[:n], g.head) ||
			string(body[n:n+len(r.grid)]) != r.grid || !bytes.Equal(body[n+len(r.grid):], g.tail) {
			v.failf("%s: response differs from the fig8-5d golden corpus", r.id)
			return false
		}
	case kindGrid:
		if !bytes.HasPrefix(body, gridHead(r.grid)) {
			v.failf("%s: response does not render grid %q: %.200s", r.id, r.grid, body)
			return false
		}
		v.mu.Lock()
		if v.keep[r.grid] {
			v.kept[r.grid] = append([]byte(nil), body...)
		}
		v.mu.Unlock()
	case kindRead:
		if want := v.body(r.grid); !bytes.Equal(body, want) {
			v.failf("%s: stored result read back differs from the response that stored it", r.id)
			return false
		}
	}
	return true
}

// rerun runs each request's grid through one fresh library engine and
// compares the rendering with the kept response body. It returns the
// library results and their run times (ms).
func (v *verifier) rerun(ctx context.Context, reqs []request) ([]*photonrail.ExperimentResult, []float64, error) {
	en := photonrail.NewBoundedEngine(0, 4096)
	var results []*photonrail.ExperimentResult
	var runMS []float64
	for _, r := range reqs {
		e, ok := photonrail.Lookup(r.exp)
		if !ok {
			return nil, nil, fmt.Errorf("unknown experiment %q", r.exp)
		}
		spec := r.spec
		var res *photonrail.ExperimentResult
		if err := timeIt(&runMS, func() error {
			var err error
			res, err = e.Run(ctx, en, photonrail.Params{Grid: &spec})
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("library run of %s: %w", r.id, err)
		}
		var lib bytes.Buffer
		if err := res.RenderJSON(&lib); err != nil {
			return nil, nil, err
		}
		if got := v.body(r.grid); !bytes.Equal(got, lib.Bytes()) {
			v.failf("%s: served response differs from a fresh library run", r.id)
		}
		results = append(results, res)
	}
	return results, runMS, nil
}
