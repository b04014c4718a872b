package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testKey derives a distinct valid (hex) key per name.
func testKey(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 8) + strings.Repeat("0123456789abcdef", 2)
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Config{})
	ent := Entry{
		Experiment: "fig8", Grid: "",
		Rendered: "table\n", RenderedCSV: "a,b\n1,2\n", RowsJSON: "{\n  \"x\": 1\n}\n",
	}
	key := testKey(0)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served a hit")
	}
	if err := s.Put(key, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry not served")
	}
	if got != ent {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, ent)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("resident bytes = %d, want > 0", st.Bytes)
	}
}

// TestCrossOpenDurability: a fresh Store over the same directory serves
// the previous instance's objects — the restart path the gateway's
// cross-restart dedup rides on.
func TestCrossOpenDurability(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, Config{Dir: dir, Fsync: true})
	ent := Entry{Experiment: "table3", Rendered: "t3\n"}
	if err := s1.Put(testKey(1), ent); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, Config{Dir: dir})
	got, ok := s2.Get(testKey(1))
	if !ok || got != ent {
		t.Fatalf("reopened store Get = %+v, %v; want original entry", got, ok)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("reopened index = %+v, want the surviving object", st)
	}
}

// TestEvictionLRUByMtime: the size bound evicts the least-recently-used
// objects, Get refreshes recency, and the newest write survives its own
// Put.
func TestEvictionLRUByMtime(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { clock = clock.Add(time.Second); return clock }
	pad := strings.Repeat("x", 256)
	ent := Entry{Experiment: "e", Rendered: pad}
	one := int64(len(mustJSON(t, ent)))

	s := openTest(t, Config{MaxBytes: 3 * one, Now: now})
	keys := []string{testKey(0), testKey(1), testKey(2)}
	for _, k := range keys {
		if err := s.Put(k, ent); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest so the middle one is now least recent.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("expected resident object")
	}
	if err := s.Put(testKey(3), ent); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("least-recently-used object survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], testKey(3)} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("object %s evicted, want resident", k[:8])
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", st)
	}
}

func mustJSON(t *testing.T, ent Entry) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(5), ent); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(testKey(5)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptObjectSelfHeals: a torn object is a miss, is removed, and
// a subsequent Put+Get serves cleanly.
func TestCorruptObjectSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir})
	key := testKey(2)
	if err := s.Put(key, Entry{Experiment: "e", Rendered: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt object served as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatalf("corrupt object not removed: %v", err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 error / 0 entries", st)
	}
	if err := s.Put(key, Entry{Experiment: "e", Rendered: "clean"}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || got.Rendered != "clean" {
		t.Fatalf("rewritten object Get = %+v, %v", got, ok)
	}
}

// TestChecksumCatchesParseableCorruption: an object whose body still
// parses but no longer matches its recorded checksum — one digit of a
// stored rowsJSON flipped, or the checksum line missing altogether, as
// in a plain-JSON object — is dropped and read as a miss, never served.
func TestChecksumCatchesParseableCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"flipped digit", func(data []byte) []byte {
			return bytes.Replace(data, []byte("1.25"), []byte("9.25"), 1)
		}},
		{"no checksum line", func(data []byte) []byte {
			_, body, _ := bytes.Cut(data, []byte{'\n'})
			return body
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, Config{})
			key := testKey(byte(i))
			ent := Entry{Experiment: "fig8-5d", Grid: "fig8-5d",
				RowsJSON: "{\n  \"grid\": \"fig8-5d\",\n  \"cells\": [{\"slowdown\": 1.25}]\n}\n"}
			if err := s.Put(key, ent); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.corrupt(data)
			if bytes.Equal(bad, data) {
				t.Fatal("corruption changed nothing")
			}
			if err := os.WriteFile(s.path(key), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupted object served as a hit: %+v", got)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupted object not removed: %v", err)
			}
			if st := s.Stats(); st.Errors != 1 || st.Misses != 1 || st.Hits != 0 || st.Entries != 0 {
				t.Fatalf("stats = %+v, want 1 error / 1 miss / 0 hits / 0 entries", st)
			}
		})
	}
}

// TestOpenRemovesTempFilesAndIgnoresForeign: interrupted-write temp
// files are cleaned up; non-object files are neither indexed nor
// touched.
func TestOpenRemovesTempFilesAndIgnoresForeign(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTHEX!.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Config{Dir: dir})
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"123")); !os.IsNotExist(err) {
		t.Fatal("interrupted temp file survived Open")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file removed by Open")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files indexed: %+v", st)
	}
}

func TestInvalidKeysRefused(t *testing.T) {
	s := openTest(t, Config{})
	for _, key := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64), strings.Repeat("a", 200)} {
		if err := s.Put(key, Entry{}); err == nil {
			t.Errorf("Put accepted invalid key %q", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get served invalid key %q", key)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without a directory accepted")
	}
}

// TestReopenEnforcesBound: an over-bound directory is trimmed at Open,
// oldest mtime first.
func TestReopenEnforcesBound(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { clock = clock.Add(time.Second); return clock }
	big := openTest(t, Config{Dir: dir, Now: now})
	ent := Entry{Experiment: "e", Rendered: strings.Repeat("y", 128)}
	one := int64(len(mustJSON(t, Entry{Experiment: "e", Rendered: strings.Repeat("y", 128)})))
	for i := byte(0); i < 4; i++ {
		if err := big.Put(testKey(i), ent); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Config{Dir: dir, MaxBytes: 2 * one, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Bytes > 2*one {
		t.Fatalf("reopen with bound kept %d entries / %d bytes, want 2 / <= %d", st.Entries, st.Bytes, 2*one)
	}
	for _, k := range []string{testKey(2), testKey(3)} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("newest objects should survive the reopen trim (missing %s)", k[:8])
		}
	}
}

// TestConcurrentGetPutEvict races Gets of one key against Puts that
// rewrite it, Puts of other keys that evict it (the bound holds about
// two objects), and a hand that tears its file. Every Get must miss or
// return the exact stored bytes; afterwards a re-Put object survives and
// the index accounts for every resident byte.
func TestConcurrentGetPutEvict(t *testing.T) {
	ent := Entry{Experiment: "fig8", RowsJSON: strings.Repeat("row\n", 64)}
	data, err := encodeObject(ent)
	if err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Config{MaxBytes: int64(2*len(data) + len(data)/2)})
	key := testKey(0)
	const rounds = 200
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		run(func(int) {
			if got, ok := s.Get(key); ok && got != ent {
				t.Errorf("Get served %+v, want the stored entry or a miss", got)
			}
		})
	}
	run(func(int) {
		if err := s.Put(key, ent); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if err := s.Put(testKey(byte(1+i%3)), Entry{Experiment: "other", RowsJSON: ent.RowsJSON}); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if i%4 != 0 {
			return
		}
		if err := os.WriteFile(s.path(key), []byte("{torn"), 0o644); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	if err := s.Put(key, ent); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || got != ent {
		t.Fatalf("re-Put object Get = %+v, %v; want the stored entry", got, ok)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for k, obj := range s.index {
		sum += obj.size
		if _, err := os.Stat(s.path(k)); err != nil {
			t.Errorf("indexed object %s has no file: %v", k, err)
		}
	}
	if sum != s.bytes {
		t.Fatalf("index sizes sum to %d, store counts %d resident bytes", sum, s.bytes)
	}
}

// TestFailedReadSparesReplacedObject pins the outcomes a Get records
// after reading without the lock: a failed read of an object a racing
// Put has replaced leaves the new object in place, and a file a racing
// eviction removed is a plain miss, not an error.
func TestFailedReadSparesReplacedObject(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(0)
	ent := Entry{Experiment: "e", Rendered: "r"}
	if err := s.Put(key, ent); err != nil {
		t.Fatal(err)
	}
	stale := s.index[key]
	if err := s.Put(key, ent); err != nil { // the racing re-Put
		t.Fatal(err)
	}
	s.failedRead(key, stale, false)
	if st := s.Stats(); st.Errors != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after a corrupt read of a replaced object: stats = %+v, want 1 error / 1 miss / 1 entry", st)
	}
	if got, ok := s.Get(key); !ok || got != ent {
		t.Fatalf("re-Put object Get = %+v, %v; want it to survive", got, ok)
	}

	evicted := s.index[key]
	s.mu.Lock()
	s.dropLocked(key, evicted) // the racing eviction
	s.mu.Unlock()
	s.failedRead(key, evicted, true)
	if st := s.Stats(); st.Errors != 1 || st.Misses != 2 {
		t.Fatalf("after reading an evicted object: stats = %+v, want still 1 error, 2 misses", st)
	}
}
