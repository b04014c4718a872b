package opusnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: MsgAcquire, Seq: 7, Rank: 3, Rail: 1, Group: "fsdp.s0.r1", Ranks: []int{1, 5}}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Seq != in.Seq || out.Rank != in.Rank ||
		out.Group != in.Group || len(out.Ranks) != 2 {
		t.Errorf("round trip: %+v", out)
	}
}

func TestReadMessageRejectsBadFrames(t *testing.T) {
	// Zero length.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero frame accepted")
	}
	// Oversized length.
	if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated body.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 10, 'x'})); err == nil {
		t.Error("truncated frame accepted")
	}
	// Invalid JSON.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 2, '{', 'x'})); err == nil {
		t.Error("bad JSON accepted")
	}
}

func newTestServer(t *testing.T, latency units.Duration) *Server {
	t.Helper()
	cl := topo.MustNew(topo.Config{NumNodes: 4, GPUsPerNode: 4})
	s, err := NewServer(ServerConfig{Cluster: cl, ReconfigLatency: latency})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dialRank(t *testing.T, s *Server, rank int) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), rank)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRegisterValidation(t *testing.T) {
	s := newTestServer(t, 0)
	c := dialRank(t, s, 0)
	// Cross-rail group rejected.
	if err := c.RegisterGroup("bad", 0, int(parallelism.FSDP), []int{0, 5}); err == nil {
		t.Error("cross-rail group registered")
	}
	// Valid group registers, and identical re-registration is fine.
	if err := c.RegisterGroup("fsdp.s0.r0", 0, int(parallelism.FSDP), []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("fsdp.s0.r0", 0, int(parallelism.FSDP), []int{0, 4}); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	// Conflicting re-registration rejected.
	if err := c.RegisterGroup("fsdp.s0.r0", 0, int(parallelism.FSDP), []int{0, 8}); err == nil {
		t.Error("conflicting re-register accepted")
	}
	// Unknown group operations rejected.
	if err := c.Release("nope", 0); err == nil {
		t.Error("release of unknown group accepted")
	}
	if err := c.Provision("nope", 0); err == nil {
		t.Error("provision of unknown group accepted")
	}
	// Acquire by a non-member rejected.
	if err := c.RegisterGroup("fsdp.s1.r0", 0, int(parallelism.FSDP), []int{8, 12}); err != nil {
		t.Fatal(err)
	}
	if err := c.Acquire("fsdp.s1.r0", 0); err == nil {
		t.Error("acquire by non-member accepted")
	}
}

// TestGroupSyncAcquire checks §4.1's group sync: the acquire of one rank
// does not complete until the other member asks too.
func TestGroupSyncAcquire(t *testing.T) {
	s := newTestServer(t, 0)
	c0 := dialRank(t, s, 0)
	c4 := dialRank(t, s, 4)
	for _, c := range []*Client{c0, c4} {
		if err := c.RegisterGroup("fsdp.s0.r0", 0, int(parallelism.FSDP), []int{0, 4}); err != nil {
			t.Fatal(err)
		}
	}
	done0 := make(chan error, 1)
	go func() { done0 <- c0.Acquire("fsdp.s0.r0", 0) }()
	select {
	case err := <-done0:
		t.Fatalf("rank 0 granted before rank 4 arrived: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := c4.Acquire("fsdp.s0.r0", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done0:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rank 0 never granted")
	}
	// Release from both sides.
	if err := c0.Release("fsdp.s0.r0", 0); err != nil {
		t.Fatal(err)
	}
	if err := c4.Release("fsdp.s0.r0", 0); err != nil {
		t.Fatal(err)
	}
	st, err := c0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconfigurations != 1 {
		t.Errorf("reconfigurations = %d, want 1", st.Reconfigurations)
	}
}

// TestFullIterationOverTCP drives the §3.1 rail-0 phase sequence
// (FSDP -> PP -> FSDP) through the real control plane with 4 ranks.
func TestFullIterationOverTCP(t *testing.T) {
	s := newTestServer(t, 5*units.Millisecond)
	ranks := []int{0, 4, 8, 12} // rail 0 of the 4x4 cluster
	clients := make(map[int]*Client)
	for _, r := range ranks {
		clients[r] = dialRank(t, s, r)
	}
	groups := []struct {
		name    string
		members []int
	}{
		{"fsdp.s0.r0", []int{0, 4}},
		{"fsdp.s1.r0", []int{8, 12}},
		{"pp.d0.r0", []int{0, 8}},
		{"pp.d1.r0", []int{4, 12}},
	}
	for _, g := range groups {
		for _, r := range g.members {
			if err := clients[r].RegisterGroup(g.name, 0, int(parallelism.FSDP), g.members); err != nil {
				t.Fatal(err)
			}
		}
	}
	phase := func(names ...string) {
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for _, name := range names {
			for _, g := range groups {
				if g.name != name {
					continue
				}
				for _, r := range g.members {
					wg.Add(1)
					go func(r int, name string) {
						defer wg.Done()
						if err := clients[r].Acquire(name, 0); err != nil {
							errs <- fmt.Errorf("rank %d acquire %s: %w", r, name, err)
							return
						}
						if err := clients[r].Release(name, 0); err != nil {
							errs <- fmt.Errorf("rank %d release %s: %w", r, name, err)
						}
					}(r, name)
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	phase("fsdp.s0.r0", "fsdp.s1.r0") // AG bursts
	phase("pp.d0.r0", "pp.d1.r0")     // pipeline
	phase("fsdp.s0.r0", "fsdp.s1.r0") // RS bursts
	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconfigurations < 2 || st.Reconfigurations > 6 {
		t.Errorf("reconfigurations = %d, want a handful (2-6)", st.Reconfigurations)
	}
	if st.QueuedGrants == 0 {
		t.Error("no queued grants recorded")
	}
}

// TestProvisionOverTCP verifies a provisioned reconfiguration completes
// before the collective arrives.
func TestProvisionOverTCP(t *testing.T) {
	s := newTestServer(t, 20*units.Millisecond)
	c0 := dialRank(t, s, 0)
	c8 := dialRank(t, s, 8)
	for _, c := range []*Client{c0, c8} {
		if err := c.RegisterGroup("pp.d0.r0", 0, int(parallelism.PP), []int{0, 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c0.Provision("pp.d0.r0", 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let the switch reconfigure
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range []*Client{c0, c8} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if err := c.Acquire("pp.d0.r0", 0); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Errorf("acquire after provision took %v; latency not hidden", elapsed)
	}
	st, _ := c0.Stats()
	if st.ProvisionedRequests != 1 {
		t.Errorf("provisioned requests = %d", st.ProvisionedRequests)
	}
}

// TestShimErrorTextPrefixedOnce: the controller writes its error texts
// under "opusnet: ", and the shim client hands them on with that prefix
// once.
func TestShimErrorTextPrefixedOnce(t *testing.T) {
	s := newTestServer(t, 0)
	c := dialRank(t, s, 0)
	err := c.Release("nope", 0)
	if want := `opusnet: release of unknown group "nope"`; err == nil || err.Error() != want {
		t.Errorf("release err = %v, want %s", err, want)
	}
}

func TestDuplicateAcquireRejected(t *testing.T) {
	s := newTestServer(t, 0)
	c0 := dialRank(t, s, 0)
	c4 := dialRank(t, s, 4)
	for _, c := range []*Client{c0, c4} {
		if err := c.RegisterGroup("g", 0, 0, []int{0, 4}); err != nil {
			t.Fatal(err)
		}
	}
	go func() { _ = c0.Acquire("g", 0) }()
	time.Sleep(50 * time.Millisecond)
	// Same rank asking again while its first acquire is pending: error.
	if err := c0.Acquire("g", 0); err == nil {
		t.Error("duplicate pending acquire accepted")
	}
	// Unblock the first.
	if err := c4.Acquire("g", 0); err != nil {
		t.Fatal(err)
	}
}

func TestClientSurvivesServerClose(t *testing.T) {
	s := newTestServer(t, 0)
	c := dialRank(t, s, 0)
	_ = s.Close()
	if err := c.RegisterGroup("g", 0, 0, []int{0, 4}); err == nil {
		t.Error("call succeeded after server close")
	}
}

// frameOf frames body by hand: a 4-byte length, then body as given.
func frameOf(body string) []byte {
	return append([]byte{byte(len(body) >> 24), byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}, body...)
}

// TestAttachmentRoundTrip: an attachment travels after the envelope
// byte for byte, the envelope declares its length, and a frame without
// one is exactly the frame an attachment-unaware writer produced.
func TestAttachmentRoundTrip(t *testing.T) {
	rows := []byte("{\n      \"cell\": \"a\\\"}\"\n    }")
	in := &Message{Type: MsgCellsResult, Seq: 3,
		CellsResult: &CellsResultPayload{Name: "g", Indices: []int{0}, RowLens: []int{len(rows)}}, Raw: rows}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if !bytes.HasSuffix(frame, rows) || !bytes.HasPrefix(frame[4:], []byte(`{"type":"cells_result","seq":3,`)) {
		t.Fatalf("frame = %q, want the envelope (type and seq first) then the attachment", frame)
	}
	if in.RawLen != 0 {
		t.Error("WriteMessage changed the caller's message")
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Raw, rows) || out.RawLen != len(rows) || out.CellsResult.RowLens[0] != len(rows) {
		t.Fatalf("read back %+v with attachment %q", out, out.Raw)
	}

	plain := &Message{Type: MsgExpResult, Seq: 4, ExpResult: &ExpResultPayload{Name: "x", RowsJSON: "{}\n"}}
	buf.Reset()
	if err := WriteMessage(&buf, plain); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), frameOf(string(body))) {
		t.Errorf("attachment-free frame = %q, want %q", buf.Bytes(), frameOf(string(body)))
	}
}

// TestReadMessageRejectsMalformedAttachments: a frame whose attachment
// does not match its declaration, or whose cells_result row lengths do
// not split the attachment, is an error — never a panic and never a
// message with a partial attachment.
func TestReadMessageRejectsMalformedAttachments(t *testing.T) {
	env := func(extra string) string { return `{"type":"exp_result","seq":1` + extra + `}` }
	cells := func(lens string) string {
		return `{"type":"cells_result","seq":2,"cellsResult":{"name":"g","indices":[0,1],"rows":null,"rowLens":` + lens + `},"rawLen":4}`
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"attachment longer than declared", frameOf(env(`,"rawLen":3`) + "abcd")},
		{"attachment shorter than declared", frameOf(env(`,"rawLen":5`) + "abcd")},
		{"declared attachment missing", frameOf(env(`,"rawLen":2`))},
		{"bytes after an envelope that declares none", frameOf(env("") + "abcd")},
		{"whitespace after an envelope that declares none", frameOf(env("") + "\n")},
		{"negative attachment length", frameOf(env(`,"rawLen":-4`) + "abcd")},
		{"row lengths short of the attachment", frameOf(cells("[1,2]") + "abcd")},
		{"row lengths past the attachment", frameOf(cells("[3,2]") + "abcd")},
		{"negative row length", frameOf(cells("[-1,5]") + "abcd")},
		{"attachment without row lengths", frameOf(cells("null") + "abcd")},
		{"row lengths without an attachment", frameOf(`{"type":"cells_result","seq":2,"cellsResult":{"name":"g","indices":[0],"rows":null,"rowLens":[3]}}`)},
		{"truncated attachment", frameOf(env(`,"rawLen":4`) + "abcd")[:len(frameOf(env(`,"rawLen":4`)+"abcd"))-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ReadMessage(bytes.NewReader(tc.frame))
			if err == nil {
				t.Fatalf("accepted %q as %+v with attachment %q", tc.frame, m, m.Raw)
			}
			if m != nil {
				t.Fatalf("error %v came with a message", err)
			}
		})
	}
	// The well-formed twins of the cases above are accepted.
	for _, frame := range [][]byte{frameOf(env(`,"rawLen":4`) + "abcd"), frameOf(cells("[1,3]") + "abcd")} {
		m, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("well-formed %q refused: %v", frame, err)
		}
		if string(m.Raw) != "abcd" {
			t.Fatalf("attachment = %q, want %q", m.Raw, "abcd")
		}
	}
}
