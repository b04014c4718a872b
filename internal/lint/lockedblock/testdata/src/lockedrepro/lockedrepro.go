// Package lockedrepro distills the PR 2 deadlock for the lockedblock
// analyzer corpus: a reply channel send made while holding the server
// mutex, alongside the shipped fix (select with default) and the
// surrounding safe/unsafe shapes.
package lockedrepro

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

type reply struct {
	OK bool
}

type server struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	clients map[int]chan reply
	conn    net.Conn
	logf    func(format string, args ...any)
	last    string
}

// replyLocked is the PR 2 bug, distilled: an unbuffered send to the
// client's reply channel while s.mu is held. A stalled client reader
// blocks the send, the send keeps the mutex, and every other
// connection queues behind the lock.
func (s *server) replyLocked(rank int, r reply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.clients[rank]
	ch <- r // want `channel send while "s.mu" is held`
}

// replyNonBlocking is the shipped fix: the select with a default makes
// the send non-blocking (drop on a full channel), so holding the mutex
// across it is safe. Must stay quiet.
func (s *server) replyNonBlocking(rank int, r reply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.clients[rank]
	select {
	case ch <- r:
	default:
	}
}

// replyAfterUnlock snapshots under the lock and sends after releasing
// it — the other sanctioned fix. Must stay quiet.
func (s *server) replyAfterUnlock(rank int, r reply) {
	s.mu.Lock()
	ch := s.clients[rank]
	s.mu.Unlock()
	ch <- r
}

// backoffLocked sleeps and logs while holding the mutex.
func (s *server) backoffLocked() {
	s.mu.Lock()
	log.Printf("retrying")            // want `log.Printf while "s.mu" is held`
	time.Sleep(10 * time.Millisecond) // want `time.Sleep while "s.mu" is held`
	s.mu.Unlock()
	time.Sleep(10 * time.Millisecond) // after release: fine
}

// logfLocked calls the server's leveled-logger field under the read
// lock; readers block writers, so this stalls the write path too.
func (s *server) logfLocked() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.logf("state: %s", s.last) // want `logf while "s.rw" is held`
}

// formatLocked only formats under the lock — fmt.Sprintf and
// fmt.Errorf build values without I/O; despite Errorf's leveled-logger
// name, both must stay quiet.
func (s *server) formatLocked() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.clients) == 0 {
		return "", fmt.Errorf("no clients registered")
	}
	return fmt.Sprintf("clients=%d", len(s.clients)), nil
}

// writeFrameLocked performs conn I/O under the mutex: a slow or dead
// peer now holds up every other request.
func (s *server) writeFrameLocked(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(b) // want `network Write while "s.mu" is held`
	return err
}

// earlyUnlockBranch releases in the error branch; the send inside that
// branch is fine, but the fallthrough path is still locked.
func (s *server) earlyUnlockBranch(ok bool, ch chan reply, r reply) {
	s.mu.Lock()
	if !ok {
		s.mu.Unlock()
		ch <- r // branch released the lock: fine
		return
	}
	ch <- r // want `channel send while "s.mu" is held`
	s.mu.Unlock()
}

// spawnUnderLock starts a goroutine while holding the mutex; the
// goroutine body runs on its own schedule with its own discipline, so
// its send must stay quiet.
func (s *server) spawnUnderLock(ch chan reply, r reply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		ch <- r
	}()
}

// dialLocked dials while holding the mutex — directly, through a dial
// function value, and as a context-taking round trip; each can block
// for a dial timeout. The in-memory net.Pipe and context derivation
// stay quiet, as does a dial after the release.
func (s *server) dialLocked(ctx context.Context, dial func(addr string) (net.Conn, error)) {
	s.mu.Lock()
	_, _ = net.Dial("tcp", "127.0.0.1:1") // want `dial while "s.mu" is held`
	_, _ = dial("b0")                     // want `dial while "s.mu" is held`
	_ = s.query(ctx)                      // want `context-taking call while "s.mu" is held`
	a, b := net.Pipe()
	cctx, cancel := context.WithCancel(ctx)
	s.mu.Unlock()
	_, _ = dial("b0")
	_ = s.query(cctx)
	cancel()
	_, _ = a, b
}

// query stands in for an RPC client's round trip.
func (s *server) query(ctx context.Context) error { return ctx.Err() }
