package opus

import (
	"fmt"

	"photonrail/internal/collective"
	"photonrail/internal/ocs"
	"photonrail/internal/sim"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// Clock abstracts time for the controller: the discrete-event engine in
// simulation, wall-clock timers in the real (TCP) control plane. After
// must run fn later than (or, for d == 0, after the caller returns at)
// the current instant; Immediately is After(0).
type Clock interface {
	Now() units.Duration
	After(d units.Duration, fn func())
	Immediately(fn func())
}

// engineClock adapts *sim.Engine to Clock.
type engineClock struct{ e *sim.Engine }

func (c engineClock) Now() units.Duration               { return c.e.Now() }
func (c engineClock) After(d units.Duration, fn func()) { c.e.PostAfter(d, fn) }
func (c engineClock) Immediately(fn func())             { c.e.PostNow(fn) }

// SimClock wraps a discrete-event engine as a controller Clock.
func SimClock(e *sim.Engine) Clock { return engineClock{e} }

// Stats aggregates controller telemetry across rails.
type Stats struct {
	// Reconfigurations counts completed circuit reconfigurations.
	Reconfigurations int
	// FastGrants counts acquisitions served from already-installed
	// circuits (Objective 2: reconfigure only when the demand changes).
	FastGrants int
	// QueuedGrants counts acquisitions that had to wait.
	QueuedGrants int
	// BlockedTime sums, over queued acquisitions, the delay between the
	// collective's arrival and its grant — the reconfiguration overhead
	// visible to the application.
	BlockedTime units.Duration
	// ProvisionedRequests counts speculative (shim-issued) requests.
	ProvisionedRequests int
}

// request is one queued circuit acquisition on a rail.
type request struct {
	state *groupState // the group's slot on the request's rail
	// waiters are the grants Acquire attached, in arrival order; a
	// purely speculative (provisioned) request may have none yet.
	waiters []waiter
	// inFlight marks the request as part of the reconfiguration batch
	// currently actuating; such requests can no longer be cancelled.
	inFlight bool
}

// waiter is one acquisition waiting on a queued request.
type waiter struct {
	granted func(any)
	arg     any
	// arrival is when the collective arrived, for BlockedTime.
	arrival units.Duration
}

// groupState is one communication group's slot on a rail: whether its
// circuits are installed, and its in-flight transfers.
type groupState struct {
	// e is the group's circuit-table entry: its circuits, as pairs for
	// the switch, and its conflict row.
	e *entry
	// installed marks the group's circuits as set up on the rail.
	installed bool
	// active counts the group's in-flight transfers.
	active int
	// tearing marks the group for tear-down by the batch processNow is
	// assembling.
	tearing bool
}

// railState is the controller's per-rail view.
type railState struct {
	// sw is the device; its matching is the union of installed groups'
	// circuits.
	sw *ocs.Switch
	// groups holds a slot for every group of the circuit table,
	// indexed by group number.
	groups []*groupState
	// installed lists the groups whose circuits are set up, in no
	// particular order.
	installed []*groupState
	// queue is the FC-FS request queue.
	queue []*request
	// reconfiguring marks an in-progress switch reconfiguration, whose
	// requests are batch.
	reconfiguring bool
	batch         []*request
	// tearDown is processNow's scratch list of the groups its batch
	// tears down.
	tearDown []*groupState
	// processScheduled marks a pending deferred queue scan; deferring to
	// the end of the current instant lets same-instant requests coalesce
	// into one physical reconfiguration.
	processScheduled bool
	// processFn and installFn are the rail's deferred queue scan and
	// its batch's set-up, made once so scheduling them allocates
	// nothing.
	processFn, installFn func()
}

// Controller is the Opus controller: it owns every rail's OCS and serves
// circuit acquisitions from the shims.
type Controller struct {
	clock   Clock
	table   *CircuitTable
	latency units.Duration
	rails   []railState // indexed by RailID
	// slots is the group count the rails' slots cover.
	slots int
	stats Stats
	// free recycles requests that left their queue, so a run allocates
	// requests up to its peak queue depth rather than one per queued
	// acquisition.
	free []*request
}

// NewController builds a controller for every rail of the table's
// plan, with the given reconfiguration latency, serving the groups of
// table. Callers that run many simulations of one program (a latency
// sweep, repeated provisioning passes) pass the same table to every
// controller, so ring matchings and conflict checks are derived once,
// not per run.
func NewController(clock Clock, table *CircuitTable, latency units.Duration) (*Controller, error) {
	plan := table.Plan()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if latency < 0 {
		return nil, fmt.Errorf("opus: negative reconfiguration latency")
	}
	c := &Controller{
		clock:   clock,
		table:   table,
		latency: latency,
		rails:   make([]railState, plan.Cluster.NumRails()),
	}
	for r := range c.rails {
		rs := &c.rails[r]
		rs.sw = ocs.NewSwitch(fmt.Sprintf("rail%d-ocs", r), plan.Radix())
		rs.processFn = func() {
			rs.processScheduled = false
			c.processNow(rs)
		}
		rs.installFn = func() { c.install(rs) }
	}
	c.grow()
	return c, nil
}

// grow gives every rail a slot for each group of the table: at
// construction, and again when the table has gained groups since
// (opusnet.Server adds a group to its controller's table when a shim
// registers it). A slot never moves, so requests and installed lists
// keep pointing at it.
func (c *Controller) grow() {
	es := *c.table.entries.Load()
	from, to := c.slots, len(es)
	if to <= from {
		return
	}
	n := to - from
	slots := make([]groupState, n*len(c.rails))
	ptrs := make([]*groupState, to*len(c.rails))
	for r := range c.rails {
		rs := &c.rails[r]
		groups := ptrs[r*to : (r+1)*to : (r+1)*to]
		copy(groups, rs.groups)
		for i := range n {
			g := &slots[r*n+i]
			g.e = &es[from+i]
			groups[from+i] = g
		}
		rs.groups = groups
	}
	c.slots = to
}

// slot returns rail rs's slot for group g, or an error when g is not in
// the controller's circuit table.
func (c *Controller) slot(rs *railState, g *collective.Group) (*groupState, error) {
	e, err := c.table.entry(g)
	if err != nil {
		return nil, err
	}
	if e.id >= c.slots {
		c.grow()
	}
	return rs.groups[e.id], nil
}

// rail returns the state of rail r, or nil if the cluster has no such
// rail.
func (c *Controller) rail(r topo.RailID) *railState {
	if r < 0 || int(r) >= len(c.rails) {
		return nil
	}
	return &c.rails[r]
}

// Stats returns a copy of the accumulated telemetry.
func (c *Controller) Stats() Stats { return c.stats }

// Latency returns the configured reconfiguration latency.
func (c *Controller) Latency() units.Duration { return c.latency }

// Installed reports whether the named group's circuits are currently
// set up.
func (c *Controller) Installed(rail topo.RailID, group string) bool {
	rs := c.rail(rail)
	if rs == nil {
		return false
	}
	for _, g := range rs.groups {
		if g.installed && g.e.group.Name == group {
			return true
		}
	}
	return false
}

// Acquire requests circuits for group on rail. granted runs (possibly
// immediately) once the circuits are installed; the caller must pair it
// with Release when the transfer completes.
func (c *Controller) Acquire(rail topo.RailID, group *collective.Group, granted func()) error {
	return c.AcquireArg(rail, group, ignoreArg, granted)
}

// ignoreArg adapts a no-argument grant callback to AcquireArg.
func ignoreArg(arg any) { arg.(func())() }

// AcquireArg is Acquire for a grant callback taking one argument. A hot
// caller (the network executor grants one acquisition per scale-out
// collective) passes one long-lived callback with a per-acquisition
// argument, so on a warm controller neither the fast path — circuits
// already installed — nor a queued acquisition and the reconfiguration
// that serves it allocates (TestWarmControllerAllocatesNothing).
func (c *Controller) AcquireArg(rail topo.RailID, group *collective.Group, granted func(any), arg any) error {
	rs := c.rail(rail)
	if rs == nil {
		return fmt.Errorf("opus: unknown rail %d", rail)
	}
	g, err := c.slot(rs, group)
	if err != nil {
		return err
	}
	if g.installed {
		// Speculation yields to demand: a queued waiterless (shim-
		// provisioned) request that would tear our live circuits was a
		// mis-prediction — cancel it rather than stall real traffic
		// behind it. It re-enters when its group actually communicates.
		c.cancelSpeculation(rs, g)
		if !c.pendingConflicts(rs, g) {
			// Fast path: circuits live and no queued demand
			// reconfiguration is about to tear them down ahead of us.
			c.stats.FastGrants++
			g.active++
			granted(arg)
			return nil
		}
	}
	c.stats.QueuedGrants++
	w := waiter{granted: granted, arg: arg, arrival: c.clock.Now()}
	if req := c.findPending(rs, g); req != nil {
		req.waiters = append(req.waiters, w)
	} else {
		if g.e.err != nil {
			return g.e.err
		}
		req := c.newRequest(g)
		req.waiters = append(req.waiters, w)
		rs.queue = append(rs.queue, req)
	}
	c.process(rs)
	return nil
}

// Provision enqueues a speculative request for group on rail without a
// waiter: the shim predicts the group is about to communicate, so the
// controller can overlap the reconfiguration with the current
// inter-parallelism window (Fig. 5b).
func (c *Controller) Provision(rail topo.RailID, group *collective.Group) error {
	rs := c.rail(rail)
	if rs == nil {
		return fmt.Errorf("opus: unknown rail %d", rail)
	}
	g, err := c.slot(rs, group)
	if err != nil {
		return err
	}
	if g.installed && !c.pendingConflicts(rs, g) {
		return nil // already live
	}
	if c.findPending(rs, g) != nil {
		return nil // already requested
	}
	if g.e.err != nil {
		return g.e.err
	}
	c.stats.ProvisionedRequests++
	rs.queue = append(rs.queue, c.newRequest(g))
	c.process(rs)
	return nil
}

// newRequest returns a waiterless request, recycled when one is free.
func (c *Controller) newRequest(g *groupState) *request {
	var req *request
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		req = &request{}
	}
	req.state = g
	return req
}

// recycle returns a request that has left its queue for reuse.
func (c *Controller) recycle(req *request) {
	clear(req.waiters)
	*req = request{waiters: req.waiters[:0]}
	c.free = append(c.free, req)
}

// Release marks one transfer of group on rail complete and lets the
// controller make progress on queued reconfigurations.
func (c *Controller) Release(rail topo.RailID, group *collective.Group) error {
	rs := c.rail(rail)
	if rs == nil {
		return fmt.Errorf("opus: unknown rail %d", rail)
	}
	g, err := c.slot(rs, group)
	if err != nil {
		return err
	}
	if g.active <= 0 {
		return fmt.Errorf("opus: release of inactive group %s on rail %d", group.Name, rail)
	}
	g.active--
	c.process(rs)
	return nil
}

// cancelSpeculation removes queued waiterless requests whose circuits
// conflict with the live group's. An in-flight reconfiguration cannot
// be recalled; only still-queued speculation is dropped.
func (c *Controller) cancelSpeculation(rs *railState, live *groupState) {
	kept := rs.queue[:0]
	for _, req := range rs.queue {
		if len(req.waiters) == 0 && !req.inFlight && req.state.e.conflictsWith(live.e) {
			c.recycle(req)
			continue
		}
		kept = append(kept, req)
	}
	rs.queue = kept
}

// findPending returns the queued request for the group, if any.
func (c *Controller) findPending(rs *railState, g *groupState) *request {
	for _, r := range rs.queue {
		if r.state == g {
			return r
		}
	}
	return nil
}

// pendingConflicts reports whether any queued request will tear down
// the installed group g. Granting past it would let traffic pin
// circuits the head-of-line reconfiguration is waiting to remove,
// starving it — the control divergence Objective 3 forbids.
func (c *Controller) pendingConflicts(rs *railState, g *groupState) bool {
	if !g.installed {
		return false
	}
	for _, req := range rs.queue {
		if g.e.conflictsWith(req.state.e) {
			return true
		}
	}
	return false
}

// process schedules a deferred queue scan at the end of the current
// instant, so requests issued together (e.g. both data shards of one
// parallelism phase) coalesce into a single physical reconfiguration.
func (c *Controller) process(rs *railState) {
	if rs.reconfiguring || rs.processScheduled || len(rs.queue) == 0 {
		return
	}
	rs.processScheduled = true
	c.clock.Immediately(rs.processFn)
}

// processNow drives the FC-FS queue of one rail. It serves the longest
// serviceable prefix of the queue in one reconfiguration: an OCS moves
// any number of ports in a single switching actuation, so batching
// compatible requests costs one latency, not one per group.
func (c *Controller) processNow(rs *railState) {
	if rs.reconfiguring {
		return
	}
	// Serve queued requests whose circuits are already installed
	// (a previous batch may have covered them).
	for len(rs.queue) > 0 && rs.queue[0].state.installed {
		c.grant(rs, rs.queue[0])
	}
	if len(rs.queue) == 0 {
		return
	}
	// Grow the batch from the head: stop at the first request that
	// conflicts with the batch or whose tear-down targets are busy.
	// Stopping (rather than skipping) preserves FC-FS order. The busy
	// check (g.active > 0) is the only guard against tearing down
	// circuits that carry a transfer (Objective 3): the switch does not
	// know about traffic.
	batch, tearDown := rs.batch[:0], rs.tearDown[:0]
grow:
	for _, req := range rs.queue {
		for _, b := range batch {
			if req.state.e.conflictsWith(b.state.e) {
				break grow
			}
		}
		marked := len(tearDown)
		for _, g := range rs.installed {
			if g.tearing || !g.e.conflictsWith(req.state.e) {
				continue // already being torn down by this batch, or unaffected
			}
			if g.active > 0 {
				for _, t := range tearDown[marked:] {
					t.tearing = false
				}
				tearDown = tearDown[:marked]
				break grow
			}
			g.tearing = true
			tearDown = append(tearDown, g)
		}
		req.inFlight = true
		batch = append(batch, req)
	}
	rs.batch = batch
	if len(batch) == 0 {
		return // head blocked on busy circuits: retry on Release
	}
	// One physical reconfiguration: tear down, wait the switching
	// latency, set up, grant in queue order.
	rs.reconfiguring = true
	for _, g := range tearDown {
		if err := rs.sw.TearDown(g.e.pairs); err != nil {
			panic(fmt.Sprintf("opus: tear-down of idle circuits failed: %v", err))
		}
		g.installed = false
		g.tearing = false
	}
	rs.tearDown = tearDown[:0]
	kept := rs.installed[:0]
	for _, g := range rs.installed {
		if g.installed {
			kept = append(kept, g)
		}
	}
	rs.installed = kept
	c.clock.After(c.latency, rs.installFn)
}

// install completes the rail's reconfiguration once the switching
// latency has elapsed: it sets up the batch's circuits, grants its
// requests in queue order, and scans the queue again.
func (c *Controller) install(rs *railState) {
	for _, req := range rs.batch {
		if err := rs.sw.SetUp(req.state.e.pairs); err != nil {
			panic(fmt.Sprintf("opus: set-up failed: %v", err))
		}
		req.state.installed = true
		rs.installed = append(rs.installed, req.state)
	}
	rs.reconfiguring = false
	c.stats.Reconfigurations++
	for range rs.batch {
		c.grant(rs, rs.queue[0])
	}
	rs.batch = rs.batch[:0]
	c.processNow(rs)
}

// grant pops the head request (which must be installed) and runs its
// waiters in arrival order.
func (c *Controller) grant(rs *railState, head *request) {
	if rs.queue[0] != head {
		panic("opus: grant out of FC-FS order")
	}
	// Shift rather than reslice, so the queue keeps its capacity and a
	// warm rail queues without allocating.
	n := copy(rs.queue, rs.queue[1:])
	rs.queue[n] = nil
	rs.queue = rs.queue[:n]
	for _, w := range head.waiters {
		head.state.active++
		c.stats.BlockedTime += c.clock.Now() - w.arrival
		w.granted(w.arg)
	}
	c.recycle(head)
}
