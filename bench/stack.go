package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railfleet"
	"photonrail/internal/railgate"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
)

// reqHeader carries a request's id to the gateway's timing wrapper; the
// gateway itself ignores it.
const reqHeader = "X-Bench-Req"

// stack is one running serving stack, started in this process on
// loopback TCP: raild backends (two behind railfleet when fleet is
// set), the railgate gateway over a railserve.Client, the result store
// when a directory is given, and a net/http server in front.
type stack struct {
	backends []*railserve.Server
	fleet    *railfleet.Coordinator
	store    *resultstore.Store
	client   *railserve.Client
	gw       *railgate.Gateway
	hs       *http.Server
	served   chan error
	url      string

	// serve taps the raild listeners, fleetServe the coordinator's
	// listener, and cells the coordinator's connections to its backends.
	serve, fleetServe, cells *tap
}

// startStack starts a stack with the raild defaults (Workers 0 and
// MaxCacheCost 4096, as cmd/raild runs).
func startStack(fleet bool, storeDir string, tr *tracer) (st *stack, err error) {
	st = &stack{
		served:     make(chan error, 1),
		serve:      &tap{span: "railserve.serve", server: true, tr: tr},
		fleetServe: &tap{span: "railfleet.serve", server: true, tr: tr},
		cells:      &tap{span: "railfleet.cells", tr: tr},
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	n := 1
	if fleet {
		n = 2
	}
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv, err := railserve.NewServer(railserve.Config{Listener: st.serve.listener(ln), MaxCacheCost: 4096})
		if err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("raild: %w", err)
		}
		st.backends = append(st.backends, srv)
		addrs = append(addrs, srv.Addr())
	}
	target := addrs[0]
	if fleet {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.fleet, err = railfleet.New(railfleet.Config{Listener: st.fleetServe.listener(ln), Backends: addrs, Dial: st.cells.dial})
		if err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("railfleet: %w", err)
		}
		target = st.fleet.Addr()
	}
	conn, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return nil, err
	}
	st.client = railserve.NewClient(conn)
	if storeDir != "" {
		if st.store, err = resultstore.Open(resultstore.Config{Dir: storeDir, MaxBytes: 256 << 20}); err != nil {
			return nil, err
		}
	}
	st.gw, err = railgate.New(railgate.Config{Runner: timedRunner{st.client, tr}, Store: st.store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: timedHandler(st.gw.Handler(), tr)}
	go func() { st.served <- st.hs.Serve(ln) }() // joined in close
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// close stops every part of the stack and waits for each to finish,
// front to back.
func (st *stack) close() {
	if st.url != "" {
		_ = st.hs.Close()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: http server: %v\n", err)
		}
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.client != nil {
		_ = st.client.Close()
	}
	if st.fleet != nil {
		_ = st.fleet.Close()
		st.fleet.Drain()
	}
	for _, b := range st.backends {
		_ = b.Close()
		b.Drain()
	}
}

// stages are the engine pipeline stages raild times.
var stages = []string{"build", "provision", "time"}

// counters reads the stack's cumulative counters through the layers'
// public surfaces: raild's Stats and /metrics registry, the fleet's and
// gateway's registries, the store's Stats, and the taps.
func (st *stack) counters() map[string]float64 {
	c := make(map[string]float64)
	for _, b := range st.backends {
		s := b.Stats()
		c["photonrail.build_misses"] += float64(s.BuildMisses)
		c["photonrail.provision_misses"] += float64(s.ProvisionMisses)
		c["photonrail.time_misses"] += float64(s.TimeMisses)
		c["photonrail.seed_hits"] += float64(s.SeedHits)
		c["photonrail.seed_misses"] += float64(s.SeedMisses)
		c["exp.hits"] += float64(s.Hits)
		c["exp.misses"] += float64(s.Misses)
		c["exp.evictions"] += float64(s.Evictions)
		c["railserve.exps_executed"] += float64(s.ExpsExecuted)
		c["railserve.exps_deduped"] += float64(s.ExpsDeduped)
		c["railserve.cells_executed"] += float64(s.CellsExecuted)
		m := scrape(b.Telemetry().Metrics)
		for _, stage := range stages {
			c["stage_s."+stage] += m[`raild_stage_duration_seconds_sum{stage="`+stage+`"}`]
			c["stage_n."+stage] += m[`raild_stage_duration_seconds_count{stage="`+stage+`"}`]
		}
	}
	c["opusnet.bytes"] = float64(st.serve.bytes.Load() + st.fleetServe.bytes.Load())
	c["opusnet.frames"] = float64(st.serve.frames.Load() + st.fleetServe.frames.Load())
	if st.fleet != nil {
		c["railfleet.cells_req_frames"] = float64(st.serve.cellsReqs.Load())
		c["railfleet.backend_bytes"] = float64(st.serve.bytes.Load())
		c["railfleet.failovers"] = scrape(st.fleet.Telemetry().Metrics)["railfleet_failovers_total"]
	}
	c["railgate.rejected"] = sumPrefix(scrape(st.gw.Telemetry().Metrics), "railgate_rejected_total")
	if st.store != nil {
		s := st.store.Stats()
		c["resultstore.hits"] = float64(s.Hits)
		c["resultstore.misses"] = float64(s.Misses)
		c["resultstore.puts"] = float64(s.Puts)
		c["resultstore.evictions"] = float64(s.Evictions)
	}
	return c
}

// timedRunner is the gateway's Runner with a span around every call.
type timedRunner struct {
	client *railserve.Client
	tr     *tracer
}

func (r timedRunner) RunExperiment(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error) {
	if !r.tr.enabled() {
		return r.client.RunExperiment(ctx, req, onProgress)
	}
	start := r.tr.now()
	res, err := r.client.RunExperiment(ctx, req, onProgress)
	id := req.Name
	if req.Grid != nil {
		id = req.Grid.Name
	}
	r.tr.add(span{Name: "railgate.runner", Req: id, Start: start, End: r.tr.now()})
	return res, err
}

// timedHandler wraps the gateway's handler with a span around every
// run submission.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.enabled() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.add(span{Name: "railgate.http", Req: r.Header.Get(reqHeader), Start: start, End: tr.now()})
	})
}

// tap counts the opusnet bytes and frames crossing one side of a set of
// connections. While tracing it also times each request, from its
// request frame to its final reply frame, as a span.
type tap struct {
	span string
	// server marks the accepting side: requests arrive on Read. On the
	// dialing side they leave on Write.
	server bool
	tr     *tracer

	bytes, frames, cellsReqs atomic.Uint64
}

func (t *tap) listener(ln net.Listener) net.Listener { return tapListener{ln, t} }

// dial is a railfleet.Config.Dial that taps each backend connection.
func (t *tap) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return t.wrap(c, addr), nil
}

func (t *tap) wrap(c net.Conn, peer string) net.Conn {
	return &tapConn{Conn: c, t: t, peer: peer, pending: make(map[uint64]pending)}
}

type tapListener struct {
	net.Listener
	t *tap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c, l.Addr().String()), nil
}

// pending is a request awaiting its reply on one connection.
type pending struct {
	req   string
	start int64
}

// tapConn scans the frames on one connection. Read and Write each run
// on one goroutine at a time (opusnet's reader loop and the serialised
// writer), so each direction's scanner needs no lock; pending is shared
// by both.
type tapConn struct {
	net.Conn
	t      *tap
	peer   string
	rd, wr frameScanner

	mu      sync.Mutex
	pending map[uint64]pending
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.bytes.Add(uint64(n))
	c.rd.feed(p[:n], func(head []byte) { c.frame(head, c.t.server) })
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.bytes.Add(uint64(n))
	c.wr.feed(p[:n], func(head []byte) { c.frame(head, !c.t.server) })
	return n, err
}

// frame handles one complete frame; toward says it travels in the
// request direction (client to server).
func (c *tapConn) frame(head []byte, toward bool) {
	c.t.frames.Add(1)
	typ := headField(head, `"type":"`)
	if typ == string(opusnet.MsgCellsReq) {
		c.t.cellsReqs.Add(1)
	}
	if !c.t.tr.enabled() {
		return
	}
	seq, _ := strconv.ParseUint(headNumber(head, `"seq":`), 10, 64)
	switch opusnet.MsgType(typ) {
	case opusnet.MsgExpReq, opusnet.MsgCellsReq:
		if toward {
			req := headField(head, `"grid":{"name":"`)
			if req == "" {
				req = headField(head, `"spec":{"name":"`)
			}
			c.mu.Lock()
			c.pending[seq] = pending{req: req, start: c.t.tr.now()}
			c.mu.Unlock()
		}
	case opusnet.MsgExpResult, opusnet.MsgCellsResult, opusnet.MsgErr:
		if !toward {
			c.mu.Lock()
			p, ok := c.pending[seq]
			delete(c.pending, seq)
			c.mu.Unlock()
			if ok {
				c.t.tr.add(span{Name: c.t.span, Req: p.req, Start: p.start, End: c.t.tr.now(), Peer: c.peer})
			}
		}
	}
}

// headLen is how much of each frame body the scanner keeps: enough to
// cover the type, seq and grid name, which opusnet encodes first.
const headLen = 192

// frameScanner follows opusnet's framing (a 4-byte big-endian length,
// then the JSON body) through a byte stream in arbitrary chunks.
type frameScanner struct {
	hdr    [4]byte
	nhdr   int
	remain int
	head   []byte
}

// feed consumes p, calling done with the start of each body it
// completes.
func (f *frameScanner) feed(p []byte, done func(head []byte)) {
	for len(p) > 0 {
		if f.remain == 0 {
			k := copy(f.hdr[f.nhdr:], p)
			f.nhdr += k
			p = p[k:]
			if f.nhdr < len(f.hdr) {
				return
			}
			f.nhdr = 0
			f.remain = int(binary.BigEndian.Uint32(f.hdr[:]))
			f.head = f.head[:0]
			continue
		}
		k := min(f.remain, len(p))
		if keep := min(k, headLen-len(f.head)); keep > 0 {
			f.head = append(f.head, p[:keep]...)
		}
		f.remain -= k
		p = p[k:]
		if f.remain == 0 {
			done(f.head)
		}
	}
}

// headField returns the JSON string that follows key in head, or "".
func headField(head []byte, key string) string {
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// headNumber returns the digits that follow key in head.
func headNumber(head []byte, key string) string {
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return string(rest[:j])
}
