package railgate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
)

// fakeRunner is a scripted backend: it counts invocations, optionally
// parks until released, and renders a deterministic result.
type fakeRunner struct {
	calls atomic.Int64
	mu    sync.Mutex
	block chan struct{} // when non-nil, RunExperiment parks on it
	err   error
}

func (f *fakeRunner) RunExperiment(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error) {
	f.calls.Add(1)
	f.mu.Lock()
	block, err := f.block, f.err
	f.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	if onProgress != nil {
		onProgress(1, 2)
		onProgress(2, 2)
	}
	return &railserve.ExpRun{
		Name:        req.Name,
		Rendered:    "text " + req.Name + "\n",
		RenderedCSV: "col\n" + req.Name + "\n",
		RowsJSON:    fmt.Sprintf("{\"experiment\":%q}", req.Name),
	}, nil
}

// newTestGateway builds a gateway over a fakeRunner with the given
// config tweaks, registering cleanup.
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *fakeRunner, *httptest.Server) {
	t.Helper()
	fr := &fakeRunner{}
	if cfg.Runner == nil {
		cfg.Runner = fr
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
	})
	return g, fr, srv
}

func post(t *testing.T, srv *httptest.Server, path, tenant, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitSyncDefaultJSON pins the happy path: a POST with no body
// runs the experiment and answers the engine's JSON rows with the run
// headers set.
func TestSubmitSyncDefaultJSON(t *testing.T) {
	_, fr, srv := newTestGateway(t, Config{})
	resp := post(t, srv, "/v1/experiments/eq1", "", "", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %q", resp.StatusCode, body)
	}
	if want := `{"experiment":"eq1"}`; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
		t.Fatalf("Content-Type = %q", got)
	}
	if resp.Header.Get("Railgate-Run") == "" || resp.Header.Get("Railgate-Key") == "" {
		t.Fatal("missing Railgate-Run/Railgate-Key headers")
	}
	if got := resp.Header.Get("Railgate-Cached"); got != "false" {
		t.Fatalf("Railgate-Cached = %q, want false", got)
	}
	if got := fr.calls.Load(); got != 1 {
		t.Fatalf("runner calls = %d, want 1", got)
	}
}

// TestContentNegotiation pins the three renderings against Accept and
// the ?format override.
func TestContentNegotiation(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	cases := []struct {
		path, accept, want, ctype string
	}{
		{"/v1/experiments/eq1", "text/csv", "col\neq1\n", "text/csv"},
		{"/v1/experiments/eq1", "text/plain", "text eq1\n", "text/plain"},
		{"/v1/experiments/eq1", "application/json", `{"experiment":"eq1"}`, "application/json"},
		{"/v1/experiments/eq1?format=table", "", "text eq1\n", "text/plain"},
		{"/v1/experiments/eq1?format=csv", "", "col\neq1\n", "text/csv"},
	}
	for _, tc := range cases {
		hdr := map[string]string{}
		if tc.accept != "" {
			hdr["Accept"] = tc.accept
		}
		resp := post(t, srv, tc.path, "", "", hdr)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s (Accept %q): status %d", tc.path, tc.accept, resp.StatusCode)
		}
		if body != tc.want {
			t.Errorf("%s (Accept %q): body %q, want %q", tc.path, tc.accept, body, tc.want)
		}
		if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, tc.ctype) {
			t.Errorf("%s (Accept %q): Content-Type %q, want %s", tc.path, tc.accept, got, tc.ctype)
		}
	}
	resp := post(t, srv, "/v1/experiments/eq1?format=yaml", "", "", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("unknown format status = %d, want 406", resp.StatusCode)
	}
}

// TestSubmitValidation pins the refusal paths: unknown experiment,
// malformed body, grid on a non-grid experiment, and an invalid spec —
// none of which may reach the runner.
func TestSubmitValidation(t *testing.T) {
	_, fr, srv := newTestGateway(t, Config{})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/experiments/nope", "", http.StatusNotFound},
		{"/v1/experiments/eq1", "{not json", http.StatusBadRequest},
		{"/v1/experiments/eq1", `{"bogusField":1}`, http.StatusBadRequest},
		{"/v1/experiments/eq1", `{"iterations":1}xyz`, http.StatusBadRequest},
		{"/v1/experiments/eq1", `{"iterations":1}{"iterations":99}`, http.StatusBadRequest},
		{"/v1/experiments/eq1", `{"grid":{"models":["opus-6"]}}`, http.StatusBadRequest},
		{"/v1/experiments/grid", `{"grid":{"models":["no-such-model"]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := post(t, srv, tc.path, "", tc.body, nil)
		body := readBody(t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s body %q: status %d (body %q), want %d", tc.path, tc.body, resp.StatusCode, body, tc.want)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("POST %s: error envelope missing: %q", tc.path, body)
		}
	}
	if got := fr.calls.Load(); got != 0 {
		t.Fatalf("runner calls = %d, want 0 (refused before execution)", got)
	}
}

// TestDecodeBodyTrailingBytes pins the parameter decoder's framing:
// one JSON value, optionally surrounded by whitespace, and nothing
// after it — trailing bytes are refused like an unknown field.
func TestDecodeBodyTrailingBytes(t *testing.T) {
	cases := []struct {
		body  string
		ok    bool
		iters int
	}{
		{"", true, 0},
		{" \n\t\r ", true, 0},
		{`{"iterations":1}`, true, 1},
		{"{\"iterations\":1} \n\t\r", true, 1},
		{` {"iterations":2}` + "\n", true, 2},
		{`{"iterations":1}xyz`, false, 0},
		{`{"iterations":1}{"iterations":99}`, false, 0},
		{`{"iterations":1}}`, false, 0},
		{`{"iterations":1}]`, false, 0},
		{`{"iterations":1} 5`, false, 0},
		{`{"iterations":1} "x"`, false, 0},
		{`{"iterations":1} {`, false, 0},
		{`{"iterations":1},`, false, 0},
		{`{"bogusField":1}`, false, 0},
		{`{"iterations":1`, false, 0},
	}
	for _, tc := range cases {
		var req opusnet.ExpRequestPayload
		err := decodeBody(strings.NewReader(tc.body), &req)
		if (err == nil) != tc.ok {
			t.Errorf("decodeBody(%q) err = %v, want accepted=%v", tc.body, err, tc.ok)
			continue
		}
		if tc.ok && req.Iterations != tc.iters {
			t.Errorf("decodeBody(%q) iterations = %d, want %d", tc.body, req.Iterations, tc.iters)
		}
	}
}

// TestRateLimit429 pins token-bucket refusal: the burst admits, the
// next request refuses with 429 and an integral Retry-After, and only
// the admitted requests reach the runner.
func TestRateLimit429(t *testing.T) {
	now := time.Unix(2000, 0)
	_, fr, srv := newTestGateway(t, Config{
		Tenants: map[string]TenantLimits{"slow": {RatePerSec: 0.5, Burst: 1}},
		Now:     func() time.Time { return now },
	})
	resp := post(t, srv, "/v1/experiments/eq1", "slow", "", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst request status = %d", resp.StatusCode)
	}
	resp = post(t, srv, "/v1/experiments/eq1", "slow", "", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate status = %d (body %q), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\" (rate 0.5/s)", got)
	}
	// Other tenants are unaffected.
	resp = post(t, srv, "/v1/experiments/eq1", "other", "", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d", resp.StatusCode)
	}
	if got := fr.calls.Load(); got != 2 {
		t.Fatalf("runner calls = %d, want 2", got)
	}
}

// TestQueueDepthCap429 pins admission control: with the slot held and
// the tenant's queue full, the next request refuses with 429 rather
// than queueing unboundedly.
func TestQueueDepthCap429(t *testing.T) {
	fr := &fakeRunner{block: make(chan struct{})}
	_, _, srv := newTestGateway(t, Config{
		Runner: fr,
		Slots:  1,
		Tenants: map[string]TenantLimits{
			"t": {MaxQueue: 1},
		},
	})
	// Occupy the slot (async so the POST returns immediately).
	resp := post(t, srv, "/v1/experiments/eq1?async=1", "t", "", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot-holder status = %d", resp.StatusCode)
	}
	// Fill the queue (depth 1).
	resp = post(t, srv, "/v1/experiments/eq1?async=1", "t", "", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued request status = %d", resp.StatusCode)
	}
	// Over the cap: refused.
	resp = post(t, srv, "/v1/experiments/eq1?async=1", "t", "", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue status = %d (body %q), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on queue refusal")
	}
	close(fr.block)
}

// TestStoreHitSkipsRunner pins the durable fast path: the second
// identical request serves from the store without invoking the runner
// and says so in the Railgate-Cached header; the bytes are identical.
func TestStoreHitSkipsRunner(t *testing.T) {
	store, err := resultstore.Open(resultstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, fr, srv := newTestGateway(t, Config{Store: store})
	first := post(t, srv, "/v1/experiments/eq1", "a", "", nil)
	firstBody := readBody(t, first)
	second := post(t, srv, "/v1/experiments/eq1", "b", "", nil)
	secondBody := readBody(t, second)
	if first.StatusCode != http.StatusOK || second.StatusCode != http.StatusOK {
		t.Fatalf("statuses = %d, %d", first.StatusCode, second.StatusCode)
	}
	if firstBody != secondBody {
		t.Fatalf("cached body diverged: %q vs %q", firstBody, secondBody)
	}
	if got := second.Header.Get("Railgate-Cached"); got != "true" {
		t.Fatalf("second Railgate-Cached = %q, want true", got)
	}
	if got := fr.calls.Load(); got != 1 {
		t.Fatalf("runner calls = %d, want 1 (second served from store)", got)
	}
	st := store.Stats()
	if st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("store stats = %+v, want 1 hit / 1 put", st)
	}
	// Different parameters miss the store.
	third := post(t, srv, "/v1/experiments/eq1", "a", `{"gpus":4096}`, nil)
	readBody(t, third)
	if got := fr.calls.Load(); got != 2 {
		t.Fatalf("runner calls after param change = %d, want 2", got)
	}
}

// TestAsyncLifecycle pins the 202 envelope, run polling, and the SSE
// stream terminating on the run's terminal event.
func TestAsyncLifecycle(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	resp := post(t, srv, "/v1/experiments/eq1?async=1", "", "", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d", resp.StatusCode)
	}
	var env struct {
		ID, Status, Result, Events string
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.ID == "" || env.Status != "queued" {
		t.Fatalf("envelope = %+v", env)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := srv.Client().Get(srv.URL + "/v1/runs/" + env.ID)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, r)
		if r.StatusCode == http.StatusOK {
			if want := `{"experiment":"eq1"}`; body != want {
				t.Fatalf("run body = %q, want %q", body, want)
			}
			break
		}
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("poll status = %d (body %q)", r.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The SSE stream replays the run's lifecycle and ends at the
	// terminal event (the ring retains it).
	sseResp, err := srv.Client().Get(srv.URL + "/v1/runs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, sseResp)
	var types []string
	for _, line := range strings.Split(raw, "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type string `json:"type"`
			Req  string `json:"req"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Req != env.ID {
			t.Fatalf("foreign event leaked into run stream: %+v", ev)
		}
		types = append(types, ev.Type)
	}
	want := []string{evSubmitted, evStarted, evProgress, evProgress, evResult}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
}

// TestRunnerErrorSurfaces pins failure propagation: a backend error
// answers 502 with the error envelope, and GET /v1/runs reports it.
func TestRunnerErrorSurfaces(t *testing.T) {
	fr := &fakeRunner{err: fmt.Errorf("backend exploded")}
	_, _, srv := newTestGateway(t, Config{Runner: fr})
	resp := post(t, srv, "/v1/experiments/eq1", "", "", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if !strings.Contains(body, "backend exploded") {
		t.Fatalf("body = %q", body)
	}
	id := resp.Header.Get("Railgate-Run")
	if id != "" {
		t.Fatalf("error response should not advertise a run header, got %q", id)
	}
}

// TestCatalog pins both catalog renderings: the JSON shape (names,
// grid flags, parameter docs) and the text listing via Accept.
func TestCatalog(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	resp, err := srv.Client().Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Name   string `json:"name"`
		Grid   bool   `json:"grid"`
		Params []struct {
			Name string `json:"name"`
		} `json:"params"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]int{}
	for i, e := range entries {
		byName[e.Name] = i
	}
	for _, want := range []string{"eq1", "fig4", "grid", "fig8-5d"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("catalog missing %q", want)
		}
	}
	if !entries[byName["grid"]].Grid || entries[byName["eq1"]].Grid {
		t.Fatal("grid flags wrong")
	}
	if len(entries[byName["fig4"]].Params) == 0 {
		t.Fatal("fig4 params missing from catalog")
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/experiments", nil)
	req.Header.Set("Accept", "text/plain")
	tresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text := readBody(t, tresp)
	if !strings.Contains(text, "eq1") || !strings.Contains(text, "fig8-5d") {
		t.Fatalf("text catalog = %q", text)
	}
}

// TestUnknownRun404 pins run lookup misses.
func TestUnknownRun404(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	for _, path := range []string{"/v1/runs/g999", "/v1/runs/g999/events"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRunRetentionBound pins MaxRuns: completed runs beyond the bound
// evict oldest-first; newer runs stay retrievable.
func TestRunRetentionBound(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{MaxRuns: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		resp := post(t, srv, "/v1/experiments/eq1", "", fmt.Sprintf(`{"gpus":%d}`, 1024+i), nil)
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, resp.Header.Get("Railgate-Run"))
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted run status = %d, want 404", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/runs/" + ids[2])
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recent run status = %d, want 200", resp.StatusCode)
	}
}

// TestMetricsExposition pins the gateway's scrape: request counters,
// rejection counters, and the store samplers render.
func TestMetricsExposition(t *testing.T) {
	store, err := resultstore.Open(resultstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srv := newTestGateway(t, Config{
		Store:   store,
		Tenants: map[string]TenantLimits{"limited": {RatePerSec: 0.001, Burst: 1}},
	})
	readBody(t, post(t, srv, "/v1/experiments/eq1", "limited", "", nil))
	readBody(t, post(t, srv, "/v1/experiments/eq1", "limited", "", nil)) // 429
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	for _, want := range []string{
		`railgate_requests_total{tenant="limited",code="200"} 1`,
		`railgate_rejected_total{tenant="limited",reason="rate"} 1`,
		`railgate_store_puts_total 1`,
		`railgate_queue_depth{tenant="limited"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
