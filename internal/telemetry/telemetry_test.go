package telemetry

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedNow() int64 { return 42 }

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(3)
	g := r.Gauge("test_inflight", "Requests in flight.")
	g.Set(2)
	g.Dec()
	v := r.CounterVec("test_stage_hits_total", "Stage hits.", "stage")
	v.With("build").Add(5)
	v.With("time").Add(7)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_inflight Requests in flight.
# TYPE test_inflight gauge
test_inflight 1
# HELP test_stage_hits_total Stage hits.
# TYPE test_stage_hits_total counter
test_stage_hits_total{stage="build"} 5
test_stage_hits_total{stage="time"} 7
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("render mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "h", []float64{1, 2})
	// A sample exactly on an upper bound counts in that bucket (le
	// semantics).
	h.Observe(1)
	h.Observe(2)
	h.Observe(2.0001)
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`b_seconds_bucket{le="1"} 1`,
		`b_seconds_bucket{le="2"} 2`,
		`b_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
}

func TestOnScrapeSamplesBeforeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sampled_total", "Sampled.")
	authoritative := uint64(0)
	r.OnScrape(func() { c.Set(authoritative) })
	authoritative = 9
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sampled_total 9\n") {
		t.Errorf("OnScrape hook did not run before render:\n%s", sb.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup_total", "b")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "e", "name").With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{name="a\"b\\c\n"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("escaping wrong:\ngot %s\nwant line %q", sb.String(), want)
	}
}

func TestParseSamplesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("p_total", "p").Add(4)
	r.HistogramVec("p_seconds", "h", []float64{1}, "exp").With("fig8").Observe(0.5)
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSamples(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"p_total":                             4,
		`p_seconds_bucket{exp="fig8",le="1"}`: 1,
		`p_seconds_count{exp="fig8"}`:         1,
		`p_seconds_sum{exp="fig8"}`:           0.5,
	} {
		if got[name] != want {
			t.Errorf("ParseSamples[%q] = %v, want %v (all: %v)", name, got[name], want, got)
		}
	}
}

func TestEventLogDropOldest(t *testing.T) {
	l := NewEventLog(3, fixedNow)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: "submitted", Req: fmt.Sprintf("r%d", i)})
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(snap))
	}
	for i, ev := range snap {
		if want := fmt.Sprintf("r%d", i+2); ev.Req != want {
			t.Errorf("snapshot[%d].Req = %q, want %q", i, ev.Req, want)
		}
		if ev.Seq != uint64(i+3) {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, ev.Seq, i+3)
		}
		if ev.Time != 42 {
			t.Errorf("snapshot[%d].Time = %d, want 42", i, ev.Time)
		}
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", l.Dropped())
	}
}

func TestSubscribeReplayNoGap(t *testing.T) {
	l := NewEventLog(16, fixedNow)
	for i := 0; i < 4; i++ {
		l.Emit(Event{Type: "submitted"})
	}
	sub := l.SubscribeReplay(16)
	defer sub.Close()
	for i := 0; i < 4; i++ {
		l.Emit(Event{Type: "result"})
	}
	var seqs []uint64
	for _, ev := range sub.Replay() {
		seqs = append(seqs, ev.Seq)
	}
	for i := 0; i < 4; i++ {
		ev := <-sub.C()
		seqs = append(seqs, ev.Seq)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("gap or reorder in replay+live: seqs = %v", seqs)
		}
	}
}

func TestSubscriberOverflowNeverBlocksEmit(t *testing.T) {
	l := NewEventLog(64, fixedNow)
	sub := l.Subscribe(1)
	defer sub.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			l.Emit(Event{Type: "submitted"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a full subscriber")
	}
	if sub.Dropped() == 0 {
		t.Error("expected subscriber drops with buffer 1 and 100 events")
	}
}

func TestWaitForStatefulPredicate(t *testing.T) {
	l := NewEventLog(128, fixedNow)
	l.Emit(Event{Type: "cell_complete", Cells: 10})
	errc := make(chan error, 1)
	go func() {
		total := 0
		errc <- l.WaitFor(context.Background(), func(ev Event) bool {
			if ev.Type == "cell_complete" {
				total += ev.Cells
			}
			return total >= 48
		})
	}()
	l.Emit(Event{Type: "cell_complete", Cells: 20})
	l.Emit(Event{Type: "submitted"})
	l.Emit(Event{Type: "cell_complete", Cells: 18})
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("WaitFor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor never satisfied")
	}
}

func TestWaitForContextCancel(t *testing.T) {
	l := NewEventLog(8, fixedNow)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := l.WaitFor(ctx, func(Event) bool { return false })
	if err != context.DeadlineExceeded {
		t.Fatalf("WaitFor = %v, want DeadlineExceeded", err)
	}
}

func TestWaitForDetectsPreAttachDrops(t *testing.T) {
	l := NewEventLog(2, fixedNow)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: "cell_complete", Cells: 1})
	}
	errc := make(chan error, 1)
	go func() {
		total := 0
		errc <- l.WaitFor(context.Background(), func(ev Event) bool {
			total += ev.Cells
			return total >= 5
		})
	}()
	// The waiter can't see the 3 evicted events; the next live event
	// must surface the loss instead of hanging forever.
	l.Emit(Event{Type: "cell_complete", Cells: 0})
	select {
	case err := <-errc:
		if err != ErrEventsDropped {
			t.Fatalf("WaitFor = %v, want ErrEventsDropped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor hung despite dropped events")
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	s := NewSet(16, fixedNow)
	s.Metrics.Counter("h_total", "h").Add(2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := ParseSamples(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if samples["h_total"] != 2 {
		t.Errorf("scraped h_total = %v, want 2", samples["h_total"])
	}
}

func TestHTTPEventsSSEReplayAndLive(t *testing.T) {
	s := NewSet(16, fixedNow)
	s.Events.Emit(Event{Type: "submitted", Req: "r1"})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", srv.URL+"/events", nil).WithContext(ctx)
	req.RequestURI = ""
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	s.Events.Emit(Event{Type: "result", Req: "r1"})
	buf := make([]byte, 0, 1024)
	chunk := make([]byte, 256)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(string(buf), `"type":"result"`) {
		if time.Now().After(deadline) {
			t.Fatalf("SSE stream never delivered both events; got: %s", buf)
		}
		n, err := resp.Body.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if err != nil {
			break
		}
	}
	body := string(buf)
	if !strings.Contains(body, `"type":"submitted"`) {
		t.Errorf("SSE replay missing pre-subscribe event: %s", body)
	}
	if !strings.Contains(body, `"type":"result"`) {
		t.Errorf("SSE missing live event: %s", body)
	}
	if !strings.Contains(body, "data: {") {
		t.Errorf("not SSE-framed: %s", body)
	}
}

// TestConcurrentScrapeAndEmitHammer is the -race hammer required by
// the issue: concurrent scrapes, event emission, histogram observes,
// and SSE-style subscribers must never block each other or race.
func TestConcurrentScrapeAndEmitHammer(t *testing.T) {
	s := NewSet(64, func() int64 { return time.Now().UnixNano() })
	h := s.Metrics.HistogramVec("hammer_seconds", "h", DefLatencyBuckets, "exp")
	c := s.Metrics.Counter("hammer_total", "h")
	g := s.Metrics.Gauge("hammer_inflight", "h")
	// The hook samples the inline counter into a mirror, as the Counter
	// contract asks: Set on the counter Inc races would lose increments.
	mirror := s.Metrics.Counter("hammer_mirror_total", "h")
	s.Metrics.OnScrape(func() { mirror.Set(c.Value()) })

	const emitters = 8
	const perEmitter = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	// Slow subscribers that never read: emitters must not care.
	for i := 0; i < 4; i++ {
		sub := s.Events.Subscribe(1)
		defer sub.Close()
	}
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < perEmitter; j++ {
				g.Inc()
				s.Events.Emit(Event{Type: "submitted", Req: fmt.Sprintf("r%d-%d", i, j)})
				h.With("fig8").Observe(float64(j) / 1000)
				c.Inc()
				s.Events.Emit(Event{Type: "result", Req: fmt.Sprintf("r%d-%d", i, j)})
				g.Dec()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 100; j++ {
				var sb strings.Builder
				if err := s.Metrics.Render(&sb); err != nil {
					t.Error(err)
					return
				}
				s.Events.Snapshot()
				s.Events.Dropped()
			}
		}()
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hammer deadlocked: emission or scrape blocked")
	}
	if got := c.Value(); got != emitters*perEmitter {
		t.Errorf("hammer_total = %d, want %d", got, emitters*perEmitter)
	}
	if h.With("fig8").Count() != emitters*perEmitter {
		t.Errorf("histogram count = %d, want %d", h.With("fig8").Count(), emitters*perEmitter)
	}
	// Ring is far smaller than the event volume: drops must be counted.
	if s.Events.Dropped() == 0 {
		t.Error("expected ring drops under hammer")
	}
}

func TestMarshalJSONLines(t *testing.T) {
	l := NewEventLog(4, fixedNow)
	l.Emit(Event{Type: "submitted", Req: "r1", Exp: "fig8-5d"})
	b, err := MarshalJSONLines(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	if !strings.HasSuffix(got, "\n") || strings.Count(got, "\n") != 1 {
		t.Errorf("not one JSON line: %q", got)
	}
	if !strings.Contains(got, `"exp":"fig8-5d"`) {
		t.Errorf("missing field: %q", got)
	}
}
