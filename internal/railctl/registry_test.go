package railctl

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail/internal/opusnet"
)

// clock is a manually advanced test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// recorder collects lifecycle events.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) on(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, ev := range r.events {
		out[i] = ev.Type + ":" + ev.ID
	}
	return out
}

func newTestRegistry(t *testing.T) (*Registry, *clock, *recorder) {
	t.Helper()
	ck := newClock()
	rec := &recorder{}
	return NewRegistry(Config{TTL: 10 * time.Second, Now: ck.now, OnEvent: rec.on}), ck, rec
}

func memberByID(t *testing.T, r *Registry, id string) Member {
	t.Helper()
	for _, m := range r.Members() {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("member %q not found", id)
	return Member{}
}

func TestRegistryRegisterHeartbeatLifecycle(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	if err := r.Register("a", "addr-a", 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", "addr-b", 0); err != nil { // capacity clamps to 1
		t.Fatal(err)
	}
	if got := len(r.Assignable()); got != 2 {
		t.Fatalf("assignable = %d, want 2", got)
	}
	if m := memberByID(t, r, "b"); m.Capacity != 1 {
		t.Errorf("capacity = %d, want clamped 1", m.Capacity)
	}

	// Heartbeats keep a alive across the TTL; b starves and dies.
	for i := 0; i < 3; i++ {
		ck.advance(6 * time.Second)
		st := opusnet.CacheStatsPayload{CellsExecuted: uint64(i + 1)}
		if err := r.Heartbeat("a", 8, &st); err != nil {
			t.Fatal(err)
		}
	}
	a := memberByID(t, r, "a")
	if a.State != StateHealthy || a.Capacity != 8 || !a.HasStats || a.Stats.CellsExecuted != 3 {
		t.Errorf("a = %+v, want healthy capacity-8 with stats", a)
	}
	if b := memberByID(t, r, "b"); b.State != StateDead {
		t.Errorf("b state = %s, want dead", b.State)
	}
	if got := len(r.Assignable()); got != 1 {
		t.Fatalf("assignable after death = %d, want 1", got)
	}

	// A dead member's heartbeat revives it; a re-registration also works.
	if err := r.Heartbeat("b", 2, nil); err != nil {
		t.Fatal(err)
	}
	if b := memberByID(t, r, "b"); b.State != StateHealthy || b.Capacity != 2 {
		t.Errorf("revived b = %+v", b)
	}

	want := []string{"join:a", "join:b", "leave:b", "join:b"}
	if got := rec.types(); len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("events = %v, want %v", got, want)
			}
		}
	}
}

func TestRegistryDrainLifecycle(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	if err := r.Register("a", "addr-a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain("a", "sigterm"); err != nil {
		t.Fatal(err)
	}
	if !r.Draining("a") {
		t.Fatal("a not draining after Drain")
	}
	if got := len(r.Assignable()); got != 0 {
		t.Fatalf("assignable = %d, want 0 (draining members get no new work)", got)
	}
	// Heartbeats while draining refresh liveness but do not undrain.
	ck.advance(6 * time.Second)
	if err := r.Heartbeat("a", 1, nil); err != nil {
		t.Fatal(err)
	}
	if m := memberByID(t, r, "a"); m.State != StateDraining {
		t.Errorf("state = %s, want draining after heartbeat", m.State)
	}
	// Silence past the TTL completes the departure: drained, not dead.
	ck.advance(11 * time.Second)
	if m := memberByID(t, r, "a"); m.State != StateDrained {
		t.Errorf("state = %s, want drained", m.State)
	}
	if r.Len() != 1 {
		t.Errorf("len = %d, want the drained member retained", r.Len())
	}
	// Re-registration rejoins fresh.
	if err := r.Register("a", "addr-a2", 3); err != nil {
		t.Fatal(err)
	}
	if m := memberByID(t, r, "a"); m.State != StateHealthy || m.Addr != "addr-a2" {
		t.Errorf("rejoined a = %+v", m)
	}

	var leaveReason string
	for _, ev := range rec.events {
		if ev.Type == "leave" {
			leaveReason = ev.Reason
		}
	}
	if leaveReason != "drained" {
		t.Errorf("leave reason = %q, want drained (graceful, not a death)", leaveReason)
	}
}

func TestRegistryUnknownMember(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Heartbeat("ghost", 1, nil); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("heartbeat err = %v, want ErrUnknownMember", err)
	}
	if err := r.Drain("ghost", "x"); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("drain err = %v, want ErrUnknownMember", err)
	}
	if r.Draining("ghost") {
		t.Error("unknown member reported draining")
	}
}

func TestRegistryRejectsIncompleteRegistration(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Register("", "addr", 1); err == nil {
		t.Error("empty id accepted")
	}
	if err := r.Register("id", "", 1); err == nil {
		t.Error("empty addr accepted")
	}
	if r.Len() != 0 {
		t.Errorf("len = %d after rejected registrations", r.Len())
	}
}

func TestRegistryMembersSortedAndSnapshotted(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(id, "addr-"+id, 1); err != nil {
			t.Fatal(err)
		}
	}
	ms := r.Members()
	if len(ms) != 3 || ms[0].ID != "alpha" || ms[1].ID != "mid" || ms[2].ID != "zeta" {
		t.Fatalf("members = %+v, want sorted by id", ms)
	}
}

// TestRegistryStaticMembers pins the static-member rules: AddStatic
// joins a member that no clock ever expires, whose liveness only
// coordinator probes move — Probed revives it and retains its stats,
// ProbeFailed kills it — while both are no-ops for registered members
// and the static identity is refused to Register, Heartbeat and Drain.
func TestRegistryStaticMembers(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	r.AddStatic("s0", "addr-s0")
	if err := r.Register("a", "addr-a", 2); err != nil {
		t.Fatal(err)
	}
	s0 := memberByID(t, r, "s0")
	if !s0.Static || s0.State != StateHealthy || s0.Capacity != 1 || !s0.LastHeartbeat.IsZero() {
		t.Fatalf("static = %+v, want healthy capacity-1 static with no heartbeat", s0)
	}
	if got := len(r.Assignable()); got != 2 {
		t.Fatalf("assignable = %d, want the static and the registered member", got)
	}

	// Statics never expire: well past the TTL the registered member is
	// dead and the static is still healthy.
	ck.advance(time.Hour)
	if m := memberByID(t, r, "s0"); m.State != StateHealthy {
		t.Errorf("static state after an hour = %s, want healthy", m.State)
	}
	if m := memberByID(t, r, "a"); m.State != StateDead {
		t.Fatalf("registered state after an hour = %s, want dead", m.State)
	}

	// Probe outcomes move statics only.
	r.ProbeFailed("s0", "unreachable")
	r.ProbeFailed("s0", "unreachable") // already dead: no second leave
	if m := memberByID(t, r, "s0"); m.State != StateDead {
		t.Errorf("static state after a failed probe = %s, want dead", m.State)
	}
	st := opusnet.CacheStatsPayload{Misses: 7}
	r.Probed("s0", &st)
	if m := memberByID(t, r, "s0"); m.State != StateHealthy || !m.HasStats || m.Stats.Misses != 7 {
		t.Errorf("static after a probe = %+v, want revived with stats retained", m)
	}
	r.Probed("s0", nil) // a dial answered: stats stay retained
	if m := memberByID(t, r, "s0"); !m.HasStats || m.Stats.Misses != 7 {
		t.Errorf("static after a stats-less probe = %+v, want stats kept", m)
	}
	r.Probed("a", &st)
	if m := memberByID(t, r, "a"); m.State != StateDead || m.HasStats {
		t.Errorf("registered member after Probed = %+v, want untouched (dead, no stats)", m)
	}
	if err := r.Register("a", "addr-a", 2); err != nil {
		t.Fatal(err)
	}
	r.ProbeFailed("a", "unreachable")
	if m := memberByID(t, r, "a"); m.State != StateHealthy {
		t.Errorf("registered member after ProbeFailed = %s, want healthy (heartbeats own it)", m.State)
	}

	// The static identity is reserved.
	if err := r.Register("s0", "impostor", 4); !errors.Is(err, ErrStaticMember) || !strings.Contains(err.Error(), `"s0"`) {
		t.Errorf("register s0 = %v, want ErrStaticMember naming s0", err)
	}
	if err := r.Heartbeat("s0", 4, nil); !errors.Is(err, ErrStaticMember) {
		t.Errorf("heartbeat s0 = %v, want ErrStaticMember", err)
	}
	if err := r.Drain("s0", "x"); !errors.Is(err, ErrStaticMember) {
		t.Errorf("drain s0 = %v, want ErrStaticMember", err)
	}
	if m := memberByID(t, r, "s0"); m.Addr != "addr-s0" || m.Capacity != 1 || m.State != StateHealthy {
		t.Errorf("static after refused frames = %+v, want unchanged", m)
	}

	var got []string
	for _, ev := range rec.events {
		got = append(got, ev.Type+":"+ev.ID+":"+ev.Reason)
	}
	want := []string{"join:s0:", "join:a:", "leave:a:heartbeat timeout",
		"leave:s0:unreachable", "join:s0:probe revival", "join:a:"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %q, want %q", got, want)
	}
}
