package railgate

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// startDaemon brings up a real raild-equivalent server and a client
// dialed to it — the gateway's production backend shape.
func startDaemon(t *testing.T) (*railserve.Server, *railserve.Client) {
	t.Helper()
	s, err := railserve.NewServer(railserve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := railserve.Dial(s.Addr())
	if err != nil {
		_ = s.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return s, c
}

// TestE2ECrossRestartDedup proves the durable store generalizes the
// daemon's request-level singleflight across full restarts: the second
// identical request — served by a brand-new daemon process with a cold
// engine — returns byte-identical output from disk, with zero new
// simulations on the fresh daemon (its engine counters stay at zero)
// and the hit pinned in the store's own stats.
func TestE2ECrossRestartDedup(t *testing.T) {
	dir := t.TempDir()

	// Session one: a real daemon computes the result and the gateway
	// spills it to the durable store.
	store1, err := resultstore.Open(resultstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	daemon1, client1 := startDaemon(t)
	g1, err := New(Config{Runner: client1, Store: store1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(g1.Handler())
	resp, err := http.Post(srv1.URL+"/v1/experiments/fig4", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	firstBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d: %s", resp.StatusCode, firstBody)
	}
	if got := daemon1.Stats().ExpsExecuted; got != 1 {
		t.Fatalf("first daemon ExpsExecuted = %d, want 1", got)
	}
	// The daemon restarts: connection, server, and engine state all go
	// away. Only the store directory survives.
	srv1.Close()
	g1.Close()

	store2, err := resultstore.Open(resultstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Stats().Entries; got != 1 {
		t.Fatalf("restarted store entries = %d, want 1 (durable object missing)", got)
	}
	daemon2, client2 := startDaemon(t)
	g2, err := New(Config{Runner: client2, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	srv2 := httptest.NewServer(g2.Handler())
	defer srv2.Close()

	resp, err = http.Post(srv2.URL+"/v1/experiments/fig4", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	secondBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status = %d: %s", resp.StatusCode, secondBody)
	}
	if secondBody != firstBody {
		t.Fatalf("post-restart bytes diverged:\n%q\nvs\n%q", secondBody, firstBody)
	}
	if got := resp.Header.Get("Railgate-Cached"); got != "true" {
		t.Fatalf("post-restart Railgate-Cached = %q, want true", got)
	}
	// The pin: the fresh daemon simulated nothing — no experiment
	// executions, not even an engine cache lookup.
	st := daemon2.Stats()
	if st.ExpsExecuted != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("fresh daemon touched its engine: ExpsExecuted=%d Hits=%d Misses=%d, want all 0",
			st.ExpsExecuted, st.Hits, st.Misses)
	}
	ss := store2.Stats()
	if ss.Hits != 1 || ss.Misses != 0 {
		t.Fatalf("store stats after restart = %+v, want exactly 1 hit, 0 misses", ss)
	}
	// A genuinely new request (different params) still reaches the
	// daemon — the store dedups, it doesn't fossilize.
	resp, err = http.Post(srv2.URL+"/v1/experiments/fig4", "application/json",
		strings.NewReader(`{"windowIterations":5}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("changed-params status = %d: %s", resp.StatusCode, body)
	}
	if got := daemon2.Stats().ExpsExecuted; got != 1 {
		t.Fatalf("changed-params request did not reach the daemon (ExpsExecuted = %d, want 1)", got)
	}
}

// fleetCorpus reads cmd/railfleet's committed fig8-5d rendering in one
// output format — the bytes every serving path must print.
func fleetCorpus(t *testing.T, format string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "cmd", "railfleet", "testdata", "golden", "fig8-5d."+format))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestE2EGridTableAndCSVFromRows: a daemon ships fig8-5d as its JSON
// rows alone, and the gateway derives the table and the CSV from them
// — on a fresh run, an async poll and a store hit alike — byte for
// byte equal to cmd/railfleet's corpus. The store holds only the rows,
// and its hits run no new simulation.
func TestE2EGridTableAndCSVFromRows(t *testing.T) {
	store, err := resultstore.Open(resultstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	daemon, client := startDaemon(t)
	g, err := New(Config{Runner: client, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	check := func(resp *http.Response, format, cached string) {
		t.Helper()
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", format, resp.StatusCode, body)
		}
		if body != fleetCorpus(t, format) {
			t.Errorf("%s (cached %s) diverged from cmd/railfleet's fig8-5d corpus:\n%s", format, cached, body)
		}
		if got := resp.Header.Get("Railgate-Cached"); got != cached {
			t.Errorf("%s: Railgate-Cached = %q, want %s", format, got, cached)
		}
	}

	// Fresh run, table.
	resp := post(t, srv, "/v1/experiments/fig8-5d", "", "", map[string]string{"Accept": "text/plain"})
	key := resp.Header.Get("Railgate-Key")
	check(resp, "table", "false")
	ent, ok := store.Get(key)
	if !ok {
		t.Fatal("fresh run was not spilled to the store")
	}
	if ent.Rendered != "" || ent.RenderedCSV != "" || ent.RowsJSON != fleetCorpus(t, "json") {
		t.Errorf("stored grid entry holds rendered %d / renderedCSV %d bytes and rowsJSON equal to the corpus %v; want only the rows",
			len(ent.Rendered), len(ent.RenderedCSV), ent.RowsJSON == fleetCorpus(t, "json"))
	}

	// Store hits, CSV and table: no new execution, no engine lookup.
	before := daemon.Stats()
	check(post(t, srv, "/v1/experiments/fig8-5d", "", "", map[string]string{"Accept": "text/csv"}), "csv", "true")
	check(post(t, srv, "/v1/experiments/fig8-5d?format=table", "", "", nil), "table", "true")
	if after := daemon.Stats(); after.ExpsExecuted != before.ExpsExecuted || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("store hits reached the daemon: before %+v, after %+v", before, after)
	}

	// Fresh run, CSV, through an async poll on a gateway without a store.
	g2, err := New(Config{Runner: client})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	srv2 := httptest.NewServer(g2.Handler())
	defer srv2.Close()
	resp = post(t, srv2, "/v1/experiments/fig8-5d?async=1", "", "", nil)
	var env struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(30 * time.Second); ; {
		req, err := http.NewRequest(http.MethodGet, srv2.URL+"/v1/runs/"+env.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/csv")
		resp, err := srv2.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			check(resp, "csv", "false")
			break
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted || time.Now().After(deadline) {
			t.Fatalf("async poll status = %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := daemon.Stats().ExpsExecuted; got != 2 {
		t.Fatalf("daemon ExpsExecuted = %d, want 2 (one per store-less fresh run)", got)
	}
}

// TestE2EUnnamedBuiltinGridText: fig8-5d posted with an unnamed spec
// runs as grid "" and is still served as a grid's text — derived from
// its rows at the gateway — byte-identical to a local registry run.
func TestE2EUnnamedBuiltinGridText(t *testing.T) {
	_, client := startDaemon(t)
	g, err := New(Config{Runner: client})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	spec := scenario.Spec{LatenciesMS: []float64{5}, Iterations: 1}
	e, _ := photonrail.Lookup("fig8-5d")
	res, err := e.Run(context.Background(), photonrail.NewEngine(1), photonrail.Params{Grid: &spec})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.RenderText(&want); err != nil {
		t.Fatal(err)
	}
	resp := post(t, srv, "/v1/experiments/fig8-5d", "", `{"grid":{"latenciesMS":[5],"iterations":1}}`,
		map[string]string{"Accept": "text/plain"})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "Scenario grid\n") || body != want.String() {
		t.Errorf("unnamed fig8-5d text diverged from the local run:\n got: %q\nwant: %q", body, want.String())
	}
}

// gatedRunner forwards to a real backend but parks the first request
// until released — pinning the gateway's only execution slot so the
// test can load a backlog behind it deterministically. Every request
// still executes on the real daemon once released.
type gatedRunner struct {
	inner   Runner
	started chan struct{} // closed when the first request reaches the runner
	release chan struct{} // the first request proceeds once this closes

	mu    sync.Mutex
	first bool
}

func (gr *gatedRunner) RunExperiment(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error) {
	gr.mu.Lock()
	isFirst := !gr.first
	gr.first = true
	gr.mu.Unlock()
	if isFirst {
		close(gr.started)
		select {
		case <-gr.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return gr.inner.RunExperiment(ctx, req, onProgress)
}

// TestE2EFairQueueNoStarvation proves the weighted fair queue's
// no-starvation guarantee end to end against a real daemon: a tenant
// flooding the gateway with a deep backlog cannot starve another
// tenant's single request — the light tenant's run is dispatched
// immediately after the one in-flight execution, ahead of the entire
// flood backlog.
func TestE2EFairQueueNoStarvation(t *testing.T) {
	_, client := startDaemon(t)
	gr := &gatedRunner{inner: client, started: make(chan struct{}), release: make(chan struct{})}
	g, err := New(Config{Runner: gr, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	asyncPost := func(tenant string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/experiments/fig4?async=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit (%s) status = %d: %s", tenant, resp.StatusCode, body)
		}
	}

	// Flood request #1 takes the only slot (the gate holds it there);
	// the backlog below queues deterministically behind it.
	asyncPost("flood")
	select {
	case <-gr.started:
	case <-ctx.Done():
		t.Fatal("first flood run never reached the backend")
	}
	const backlog = 7
	for i := 0; i < backlog; i++ {
		asyncPost("flood")
	}
	if got := g.fq.Queued("flood"); got != backlog {
		t.Fatalf("flood backlog = %d, want %d", got, backlog)
	}

	// The light tenant's single request arrives behind the flood, then
	// the slot frees.
	asyncPost("small")
	close(gr.release)

	// Drain everything, then read the dispatch order off the event log.
	floodResults := 0
	if err := g.tel.Events.WaitFor(ctx, func(ev telemetry.Event) bool {
		if ev.Type == evResult && ev.Tenant == "flood" {
			floodResults++
		}
		return floodResults == backlog+1
	}); err != nil {
		t.Fatalf("flood backlog never drained: %v", err)
	}

	var resultTenants []string
	for _, ev := range g.tel.Events.Snapshot() {
		if ev.Type == evResult {
			resultTenants = append(resultTenants, ev.Tenant)
		}
		if ev.Type == evError {
			t.Fatalf("run failed: %+v", ev)
		}
	}
	if len(resultTenants) != backlog+2 {
		t.Fatalf("results = %v, want %d runs", resultTenants, backlog+2)
	}
	// Start-time fair queuing guarantees the small tenant runs second —
	// right after the already-executing flood run, ahead of all seven
	// queued flood requests.
	if resultTenants[0] != "flood" || resultTenants[1] != "small" {
		t.Fatalf("dispatch order = %v: small tenant starved behind the flood backlog", resultTenants)
	}
	for _, tenant := range resultTenants[2:] {
		if tenant != "flood" {
			t.Fatalf("dispatch order = %v: unexpected tail", resultTenants)
		}
	}
}
