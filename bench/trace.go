package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/resultstore"
)

// span is one interval at a layer boundary. Spans of one request share
// Req; Parent names the enclosing layer's span.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent,omitempty"`
	// Peer is the backend address on fleet hops.
	Peer  string `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while enabled; the benchmark records
// them from its own wrappers around each layer's public functions.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool     { return t.on.Load() }
func (t *tracer) setEnabled(b bool) { t.on.Store(b) }
func (t *tracer) now() int64        { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drain returns the recorded spans and forgets them.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// reqSpans is one synchronous request's spans.
type reqSpans struct {
	client, http, runner, fleet *span
	serve, cells                []span
}

// decompose splits every synchronous request traced in one round into
// the self times of the layers on its blocking path and adds each
// layer's per-request samples (ms) to out. It also sets each span's
// Parent. A round never sends two requests with one grid name, so the
// grid name identifies a request's spans below the gateway.
func decompose(spans []span, out map[string][]float64) {
	byReq := make(map[string]*reqSpans)
	get := func(id string) *reqSpans {
		r := byReq[id]
		if r == nil {
			r = &reqSpans{}
			byReq[id] = r
		}
		return r
	}
	for i := range spans {
		s := &spans[i]
		r := get(s.Req)
		switch s.Name {
		case "client":
			r.client = s
		case "railgate.http":
			r.http = s
		case "railgate.runner":
			r.runner = s
		case "railfleet.serve":
			r.fleet = s
		case "railserve.serve":
			r.serve = append(r.serve, *s)
		case "railfleet.cells":
			r.cells = append(r.cells, *s)
		}
	}
	put := func(name string, v float64) { out[name] = append(out[name], v) }
	ids := make([]string, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := byReq[id]
		if r.client == nil || r.http == nil {
			continue // async submissions and polls are off the blocking path
		}
		if r.runner == nil {
			// Served from the result store, off the path through raild.
			put("client_cached_ms", r.client.ms())
			put("railgate.cached_ms", r.http.ms())
			continue
		}
		put("client_ms", r.client.ms())
		put("http.transport_ms", r.client.ms()-r.http.ms())
		put("railgate.http_ms", r.http.ms())
		pre := float64(r.runner.Start-r.http.Start) / 1e6
		post := float64(r.http.End-r.runner.End) / 1e6
		put("railgate.pre_runner_ms", pre)
		put("railgate.post_runner_ms", post)
		put("railgate.self_ms", pre+post)
		put("railserve.rtt_ms", r.runner.ms())
		if r.fleet == nil {
			if len(r.serve) != 1 {
				continue
			}
			put("railserve.serve_ms", r.serve[0].ms())
			put("opusnet.wire_ms", r.runner.ms()-r.serve[0].ms())
			continue
		}
		// Fleet: each backend runs its batches one after another, the
		// backends in parallel; the busiest backend is on the critical
		// path.
		cells, serve := map[string]float64{}, map[string]float64{}
		for _, c := range r.cells {
			cells[c.Peer] += c.ms()
		}
		for _, s := range r.serve {
			serve[s.Peer] += s.ms()
			put("railserve.serve_ms", s.ms())
		}
		crit := ""
		for peer, v := range cells {
			if crit == "" || v > cells[crit] || (v == cells[crit] && peer < crit) {
				crit = peer
			}
		}
		put("railfleet.serve_ms", r.fleet.ms())
		put("opusnet.wire_ms", r.runner.ms()-r.fleet.ms())
		put("railfleet.self_ms", r.fleet.ms()-cells[crit])
		put("railfleet.backend_wire_ms", cells[crit]-serve[crit])
		put("railfleet.backend_serve_ms", serve[crit])
	}
	for i := range spans {
		spans[i].Parent = parentOf(spans[i], byReq[spans[i].Req])
	}
}

func parentOf(s span, r *reqSpans) string {
	switch s.Name {
	case "railgate.http":
		return "client"
	case "railgate.runner":
		return "railgate.http"
	case "railfleet.serve":
		return "railgate.runner"
	case "railfleet.cells":
		return "railfleet.serve"
	case "railserve.serve":
		if r != nil && r.fleet != nil {
			return "railfleet.cells"
		}
		return "railgate.runner"
	}
	return ""
}

// probe times a layer's public functions directly on one of the
// workload's own results: the library run, the three renderings, the
// opusnet framing of the reply, and (for the store) Put and Get.
type probe struct {
	run, text, csv, json, encode, decode, put, get []float64
	frameBytes                                     float64
}

// probeReps repeats each direct measurement; medians are reported.
const probeReps = 15

// time measures the renderings and the framing of res and, when
// storeDir is set, the store's Put and Get of it in a store opened there.
func (p *probe) time(res *photonrail.ExperimentResult, storeDir string) error {
	var text, csv, js bytes.Buffer
	for i := 0; i < probeReps; i++ {
		text.Reset()
		csv.Reset()
		js.Reset()
		if err := timeIt(&p.text, func() error { return res.RenderText(&text) }); err != nil {
			return err
		}
		if err := timeIt(&p.csv, func() error { return res.RenderCSV(&csv) }); err != nil {
			return err
		}
		if err := timeIt(&p.json, func() error { return res.RenderJSON(&js) }); err != nil {
			return err
		}
	}
	msg := &opusnet.Message{Type: opusnet.MsgExpResult, Seq: 1, ExpResult: &opusnet.ExpResultPayload{
		Name: res.Experiment, Grid: res.Grid,
		Rendered: text.String(), RenderedCSV: csv.String(), RowsJSON: js.String(),
	}}
	var frame bytes.Buffer
	for i := 0; i < probeReps; i++ {
		frame.Reset()
		if err := timeIt(&p.encode, func() error { return opusnet.WriteMessage(&frame, msg) }); err != nil {
			return err
		}
		if err := timeIt(&p.decode, func() error {
			_, err := opusnet.ReadMessage(bytes.NewReader(frame.Bytes()))
			return err
		}); err != nil {
			return err
		}
	}
	p.frameBytes = float64(frame.Len())
	if storeDir == "" {
		return nil
	}
	store, err := resultstore.Open(resultstore.Config{Dir: storeDir})
	if err != nil {
		return err
	}
	ent := resultstore.Entry{Experiment: res.Experiment, Grid: res.Grid, Rendered: text.String(), RenderedCSV: csv.String(), RowsJSON: js.String()}
	for i := 0; i < probeReps; i++ {
		key := photonrail.ExperimentKey(fmt.Sprintf("probe-%d", i), photonrail.Params{})
		if err := timeIt(&p.put, func() error { return store.Put(key, ent) }); err != nil {
			return err
		}
		if err := timeIt(&p.get, func() error {
			if _, ok := store.Get(key); !ok {
				return fmt.Errorf("resultstore probe: %s not found after Put", key)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func timeIt(samples *[]float64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*samples = append(*samples, ms(time.Since(t0)))
	return err
}

// traceFile is what a traced run writes to trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]string  `json:"env"`
	EndToEnd []metric           `json:"end_to_end"`
	Measured []metric           `json:"end_to_end_as_measured"`
	Layers   []metric           `json:"layers"`
	Blocking []metric           `json:"blocking_path"`
	Overhead map[string]float64 `json:"tracing_overhead"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
