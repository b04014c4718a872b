// Package resultstore is the durable, content-addressed result store
// behind the railgate front door: completed experiment renderings are
// spilled to disk keyed by the canonical experiment/params hash the
// engine already computes (photonrail.ExperimentKey), so an identical
// request served by any gateway — including one started after a full
// daemon restart — resolves to the same stored object instead of
// recomputing. The request-level singleflight the daemon applies in
// flight thereby generalizes into cross-restart dedup: same key, same
// bytes, zero new simulations. A grid's object holds its JSON rows
// only; the gateway derives a table or CSV from them when asked.
//
// Each object is <dir>/<key>.json: one "sha256:<hex>" line recording
// the checksum of the body, then the body, the Entry's JSON.
//
// Durability contract:
//
//   - writes are atomic: an entry is rendered to a temp file in the
//     store directory and renamed into place, so a crash mid-write
//     leaves either the old object or none — never a torn one (with
//     Fsync set, the file and directory are fsync'd first, so the
//     rename is durable across power loss too);
//   - reads are verified: Get recomputes the body's sha256, so a
//     flipped byte is caught even where the object still parses;
//   - reads self-heal: a corrupt, unverifiable (no checksum) or
//     unreadable object is dropped and counted, and the caller sees a
//     plain miss;
//   - the store is size-bounded: when the object-byte sum exceeds
//     MaxBytes, least-recently-used objects (by mtime, which Get
//     refreshes) are evicted until it fits, never evicting the object
//     just written.
//
// The store is safe for concurrent use by one process. It deliberately
// holds no cross-process locks: gateways do not share a directory.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one stored experiment result: the renderings the daemon (or
// engine) that computed it shipped. A grid experiment's entry holds
// only RowsJSON, from which its table and CSV are derived when served
// (railserve.ExpRun.Render); any other entry holds all three. Serving a
// stored entry is byte-identical to serving the original run by
// construction.
type Entry struct {
	// Experiment is the registry name that produced the result.
	Experiment string `json:"experiment"`
	// Grid is the executed grid's name for grid experiments.
	Grid string `json:"gridName,omitempty"`
	// Rendered is the aligned-text rendering.
	Rendered string `json:"rendered"`
	// RenderedCSV is the CSV rendering.
	RenderedCSV string `json:"renderedCSV"`
	// RowsJSON is the indented-JSON rendering of the structured rows.
	RowsJSON string `json:"rowsJSON"`
}

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory (required; created if missing).
	Dir string
	// MaxBytes bounds the object-byte sum (0 = unbounded). Eviction is
	// LRU by object mtime; Get refreshes the mtime of the object it
	// serves, so hot results stay resident.
	MaxBytes int64
	// Fsync, when set, fsyncs each object file and the store directory
	// before the rename that publishes it — crash-durable at the cost of
	// one fsync pair per Put. Off by default: the store is a cache, and
	// a lost object is recomputed, not lost data.
	Fsync bool
	// Now, when non-nil, replaces the wall clock (tests pin LRU order
	// with it).
	Now func() time.Time
}

// Stats is the store's serving telemetry, accumulated since Open.
type Stats struct {
	// Hits counts Gets served from disk; Misses counts Gets that found
	// nothing (including corrupt objects dropped by self-healing).
	Hits, Misses uint64
	// Puts counts objects written; Evictions counts objects dropped by
	// the size bound; Errors counts I/O or decode failures (each also
	// surfaces as a miss or failed Put).
	Puts, Evictions, Errors uint64
	// Entries and Bytes describe the resident set.
	Entries int
	Bytes   int64
}

// object is one resident entry's index record.
type object struct {
	size  int64
	mtime time.Time
}

// Store is a durable content-addressed result store; construct with
// Open.
type Store struct {
	dir   string
	max   int64
	fsync bool
	now   func() time.Time

	mu    sync.Mutex
	index map[string]*object
	bytes int64
	stats Stats
}

// Open creates (or reopens) the store rooted at cfg.Dir, rebuilding the
// index from the objects already on disk — the crash/restart recovery
// path. Leftover temp files from interrupted writes are removed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("resultstore: no directory configured")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:   cfg.Dir,
		max:   cfg.MaxBytes,
		fsync: cfg.Fsync,
		now:   cfg.Now,
		index: make(map[string]*object),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(filepath.Join(cfg.Dir, name)) // interrupted write
			continue
		}
		key, ok := strings.CutSuffix(name, objSuffix)
		if !ok || !validKey(key) {
			continue // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue // raced a concurrent removal
		}
		s.index[key] = &object{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

const (
	tmpPrefix = ".tmp-"
	objSuffix = ".json"
	// sumPrefix opens an object file's first line, which records the
	// sha256 of the body after it: the entry's JSON.
	sumPrefix = "sha256:"
)

// encodeObject frames an entry's JSON body behind its checksum line.
func encodeObject(ent Entry) ([]byte, error) {
	body, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	data := make([]byte, 0, len(sumPrefix)+hex.EncodedLen(len(sum))+1+len(body))
	data = append(data, sumPrefix...)
	data = hex.AppendEncode(data, sum[:])
	data = append(data, '\n')
	return append(data, body...), nil
}

// decodeObject verifies an object file's checksum line against its
// body and decodes the body.
func decodeObject(data []byte) (Entry, error) {
	var ent Entry
	head, body, _ := bytes.Cut(data, []byte{'\n'})
	want, ok := bytes.CutPrefix(head, []byte(sumPrefix))
	if !ok {
		return ent, fmt.Errorf("resultstore: object has no checksum")
	}
	sum := sha256.Sum256(body)
	if got := hex.AppendEncode(nil, sum[:]); !bytes.Equal(got, want) {
		return ent, fmt.Errorf("resultstore: object checksum mismatch")
	}
	err := json.Unmarshal(body, &ent)
	return ent, err
}

// validKey accepts the lowercase-hex hashes photonrail.ExperimentKey
// produces (and nothing that could traverse paths or collide with temp
// files).
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+objSuffix)
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.dir }

// Stats reports the store telemetry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Get returns the entry stored under key, refreshing its recency. A
// corrupt object is removed (self-healing) and reported as a miss.
func (s *Store) Get(key string) (Entry, bool) {
	if !validKey(key) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return Entry{}, false
	}
	data, err := os.ReadFile(s.path(key))
	var ent Entry
	if err == nil {
		ent, err = decodeObject(data)
	}
	if err != nil {
		// Torn by an external hand, corrupt on disk, or written without a
		// checksum: drop the object so the next Put rewrites it cleanly.
		s.dropLocked(key, obj)
		s.stats.Errors++
		s.stats.Misses++
		return Entry{}, false
	}
	now := s.now()
	if chErr := os.Chtimes(s.path(key), now, now); chErr == nil {
		obj.mtime = now
	}
	s.stats.Hits++
	return ent, true
}

// Put stores the entry under key, atomically (write-then-rename), then
// evicts least-recently-used objects if the size bound is exceeded —
// never the object just written.
func (s *Store) Put(key string, ent Entry) error {
	if !validKey(key) {
		return fmt.Errorf("resultstore: invalid key %q (want the canonical experiment hash)", key)
	}
	data, err := encodeObject(ent)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLocked(key, data); err != nil {
		s.stats.Errors++
		return err
	}
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
	}
	s.index[key] = &object{size: int64(len(data)), mtime: s.now()}
	s.bytes += int64(len(data))
	s.stats.Puts++
	s.evictLocked(key)
	return nil
}

// writeLocked renders data to a temp file and renames it into place.
func (s *Store) writeLocked(key string, data []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		_ = f.Close()
		_ = os.Remove(tmp)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	if s.fsync {
		if err := f.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("resultstore: fsync %s: %w", key, err)
		}
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("resultstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("resultstore: publish %s: %w", key, err)
	}
	if s.fsync {
		if dir, err := os.Open(s.dir); err == nil {
			_ = dir.Sync()
			_ = dir.Close()
		}
	}
	return nil
}

// dropLocked removes one object from disk and the index.
func (s *Store) dropLocked(key string, obj *object) {
	_ = os.Remove(s.path(key))
	delete(s.index, key)
	s.bytes -= obj.size
}

// evictLocked drops least-recently-used objects (by mtime) until the
// byte sum fits the bound, sparing keep — the eviction contract the
// gateway documents: the store converges to the MaxBytes hottest
// results, and the newest write always survives its own Put.
func (s *Store) evictLocked(keep string) {
	if s.max <= 0 || s.bytes <= s.max {
		return
	}
	type cand struct {
		key string
		obj *object
	}
	cands := make([]cand, 0, len(s.index))
	for key, obj := range s.index { //lint:allow maporder candidates are sorted by mtime (key tiebreak) before use
		if key != keep {
			cands = append(cands, cand{key, obj})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].obj.mtime.Equal(cands[j].obj.mtime) {
			return cands[i].obj.mtime.Before(cands[j].obj.mtime)
		}
		return cands[i].key < cands[j].key
	})
	for _, c := range cands {
		if s.bytes <= s.max {
			return
		}
		s.dropLocked(c.key, c.obj)
		s.stats.Evictions++
	}
}
