package railfleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
)

// backend is the data-plane record of one fleet member — a static
// -backends entry or a self-registered daemon alike: its connection
// and per-backend counters. Membership state (liveness, capacity,
// retained stats) lives in the railctl registry.
type backend struct {
	id   string // the member id: StaticID(i), or the registered id
	dial func(addr string) (net.Conn, error)

	mu sync.Mutex
	// addr is the serving address; a registered member that
	// re-registered from a new listener moves it.
	addr     string
	client   *railserve.Client
	closed   bool // coordinator shut down: no more dials
	cells    uint64
	failures uint64
}

// errClosed refuses dials after the coordinator closed.
var errClosed = errors.New("railfleet: coordinator closed")

// address returns the current serving address.
func (b *backend) address() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

// setAddr points the backend at a new serving address, dropping the
// stale connection.
func (b *backend) setAddr(addr string) {
	b.mu.Lock()
	if b.addr == addr {
		b.mu.Unlock()
		return
	}
	b.addr = addr
	c := b.client
	b.client = nil
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// conn returns the connected client without dialing; nil when nothing
// is connected.
func (b *backend) conn() *railserve.Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.client
}

// get returns the backend's client, dialing if none is connected.
// After the coordinator closes, get refuses instead of re-dialing — an
// abandoned execution's failover wave must not leak a fresh connection
// (and its reader goroutine) past Close.
func (b *backend) get() (*railserve.Client, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errClosed
	}
	if b.client != nil {
		c := b.client
		b.mu.Unlock()
		return c, nil
	}
	dial, addr := b.dial, b.addr
	b.mu.Unlock()
	conn, err := dial(addr) // outside the lock: dials may block
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if b.closed {
		_ = conn.Close() // Close raced the dial; do not leak the conn
		return nil, errClosed
	}
	if b.client != nil {
		_ = conn.Close() // lost a dial race; use the winner
	} else if b.addr != addr {
		_ = conn.Close() // the member re-registered elsewhere mid-dial
		return nil, fmt.Errorf("railfleet: backend %s moved to %s mid-dial", addr, b.addr)
	} else {
		b.client = railserve.NewClient(conn)
	}
	return b.client, nil
}

// fail records a mid-request backend failure and drops its connection
// (closing it joins the client's reader, so no goroutine outlives the
// failover). Requests pipelined on the same connection fail over on
// their own — their waits end with ErrConnDown.
func (b *backend) fail(c *railserve.Client) {
	b.mu.Lock()
	if c != nil && b.client == c {
		b.client = nil
	}
	b.failures++
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// note credits executed cells to the backend.
func (b *backend) note(cells int) {
	b.mu.Lock()
	b.cells += uint64(cells)
	b.mu.Unlock()
}

// counts reports the per-backend execution counters.
func (b *backend) counts() (cells, failures uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cells, b.failures
}

// close drops the backend's connection (joining its reader) and
// refuses future dials.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	c := b.client
	b.client = nil
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// member returns (creating on first use) the data-plane record for a
// registry member, repointing it if the member re-registered from a
// new address.
func (f *Coordinator) member(m railctl.Member) *backend {
	f.mu.Lock()
	b, ok := f.members[m.ID]
	if !ok {
		b = &backend{id: m.ID, addr: m.Addr, dial: f.dial, closed: f.Closed()}
		f.members[m.ID] = b
	}
	f.mu.Unlock()
	b.setAddr(m.Addr)
	return b
}

// lookup returns the member's data-plane record, if any exists.
func (f *Coordinator) lookup(id string) *backend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[id]
}

// connect returns b's client, dialing if none is connected, and
// reports the outcome to the registry as a probe: a static member
// revives or dies by it; a registered member ignores it, since its
// heartbeats own its liveness.
func (f *Coordinator) connect(b *backend) (*railserve.Client, error) {
	c, err := b.get()
	switch {
	case err == nil:
		f.registry.Probed(b.id, nil)
	case !errors.Is(err, errClosed):
		if f.logf != nil {
			f.logf("railfleet: backend %s unreachable: %v", b.address(), err)
		}
		f.registry.ProbeFailed(b.id, "unreachable")
	}
	return c, err
}

// probe connects to the given backends concurrently — one dead host
// must not stall the others behind its dial timeout.
func (f *Coordinator) probe(bs []*backend) {
	var wg sync.WaitGroup
	for _, b := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = f.connect(b)
		}()
	}
	wg.Wait()
}

// deadStatics returns the static members the registry holds dead,
// minus the excluded ones: only a coordinator probe revives them.
func (f *Coordinator) deadStatics(excluded map[string]bool) []*backend {
	var out []*backend
	for _, m := range f.registry.Members() {
		if m.Static && m.State == railctl.StateDead && !excluded[m.ID] {
			out = append(out, f.member(m))
		}
	}
	return out
}

// assignable reads one wave's targets from the registry: every
// assignable member not excluded, weighted by its capacity. unprobed
// lists the static members among them that nothing has connected to.
func (f *Coordinator) assignable(excluded map[string]bool) (targets []Target, byID map[string]*backend, unprobed []*backend) {
	byID = make(map[string]*backend)
	for _, m := range f.registry.Assignable() {
		if excluded[m.ID] {
			continue
		}
		b := f.member(m)
		targets = append(targets, Target{ID: m.ID, Weight: m.Capacity})
		byID[m.ID] = b
		if m.Static && b.conn() == nil {
			unprobed = append(unprobed, b)
		}
	}
	return targets, byID, unprobed
}

// waveTargets assembles one wave's assignable members (sorted by id)
// from the registry. A static member nothing has connected to is
// dialed before its first assignment, so a refused dial kills it
// before it holds cells; a registered member's connection opens lazily
// when a batch lands. Dead members cost the request nothing — the
// probe loop owns the revival of dead statics — unless nothing is
// assignable: then the dead statics get a rescue probe, so a
// fully-restarted static fleet still serves rather than failing the
// request.
func (f *Coordinator) waveTargets(excluded map[string]bool) ([]Target, map[string]*backend) {
	targets, byID, unprobed := f.assignable(excluded)
	if len(unprobed) > 0 {
		f.probe(unprobed)
		targets, byID, _ = f.assignable(excluded)
	}
	if len(targets) == 0 {
		f.probe(f.deadStatics(excluded))
		targets, byID, _ = f.assignable(excluded)
	}
	return targets, byID
}

// probeLoop re-probes dead static members every interval — the cadence
// an agent heartbeats at. Requests skip dead members, so this loop
// (besides the empty-fleet rescue probe) is what brings a restarted
// static daemon back into the rotation.
func (f *Coordinator) probeLoop(interval time.Duration) {
	defer f.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.Context().Done():
			return
		case <-ticker.C:
			f.probe(f.deadStatics(nil))
		}
	}
}

// refreshStatics asks every live connected static member for a fresh
// stats_req, concurrently and bounded by statsTimeout (a wedged backend
// degrades the aggregate instead of hanging it), and reports what it
// saw: an answer is a probe the registry retains the stats of, a
// failure marks the member dead until the next probe. Registered
// members are not asked — their heartbeats already carried their
// snapshots.
func (f *Coordinator) refreshStatics() {
	ctx, cancel := context.WithTimeout(f.Context(), statsTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range f.registry.Assignable() {
		if !m.Static {
			continue
		}
		c := f.member(m).conn()
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.StatsCtx(ctx)
			switch {
			case err == nil:
				f.registry.Probed(m.ID, &st)
			case f.Context().Err() == nil:
				f.registry.ProbeFailed(m.ID, "stats unanswered")
			}
		}()
	}
	wg.Wait()
}
