package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"teasim/internal/telemetry"
	"teasim/tea"
)

// testRec builds a distinct record for index i.
func testRec(i int) tea.JournalRecord {
	return tea.JournalRecord{
		Workload: fmt.Sprintf("wl%d", i),
		Mode:     tea.ModeTEA,
		Spec:     fmt.Sprintf("%016x", 0xdead0000+i),
		MaxInstr: 1000,
		Scale:    1,
		Result:   tea.Result{Workload: fmt.Sprintf("wl%d", i), Mode: tea.ModeTEA, Cycles: uint64(100 + i), Instructions: 1000},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		res, ok := s.Get(KeyOf(testRec(i)))
		if !ok || res.Cycles != uint64(100+i) {
			t.Fatalf("get %d: ok=%v cycles=%d", i, ok, res.Cycles)
		}
	}
	if _, ok := s.Get(Key{Workload: "nope"}); ok {
		t.Fatal("got a result for an unknown key")
	}
	st := s.Stats()
	if st.Entries != n || st.Hits != n || st.Misses != 1 || st.Puts != n {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything persisted, spread over the shard files.
	s2, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopened with %d entries, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(KeyOf(testRec(i))); !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	nonEmpty := 0
	for _, p := range shards {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("expected records spread over shards, got %d non-empty of %d", nonEmpty, len(shards))
	}
}

func TestStoreDropsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRec(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "shard-000.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail and a bit-flip in an intact line must both be dropped.
	corrupted := append([]byte{}, b...)
	corrupted = append(corrupted, []byte(`{"at":1,"rec":{"v":1,"workload":"torn`)...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewRing(8)
	s2, err := Open(dir, Options{Shards: 1, Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("want the one intact record, got %d", s2.Len())
	}
	if s2.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s2.Stats().Dropped)
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Superseded != 0 {
		t.Fatalf("corrupt/superseded = %d/%d, want 1/0", st.Corrupt, st.Superseded)
	}
	evs := sink.Events()
	if len(evs) != 1 {
		t.Fatalf("telemetry events = %d, want 1", len(evs))
	}
	if ev := evs[0]; ev.Kind != telemetry.EvCorruptRecord || ev.Count != 1 || ev.Job != path {
		t.Fatalf("unexpected corrupt-record event %+v", ev)
	}
}

func TestStoreTTLAndCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	s, err := Open(dir, Options{Shards: 2, TTL: time.Hour, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Two generations an hour apart: the first expires, the second stays.
	for i := 0; i < 4; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Hour)
	for i := 4; i < 8; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}

	if _, ok := s.Get(KeyOf(testRec(0))); ok {
		t.Fatal("expired entry served")
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Expired)
	}
	if _, ok := s.Get(KeyOf(testRec(5))); !ok {
		t.Fatal("fresh entry missed")
	}

	sizeBefore := shardBytes(t, dir)
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// testRec(0) was already lazily retired by the Get above; the other
	// three stale entries fall to Compact.
	if cs.Kept != 4 || cs.Expired != 3 {
		t.Fatalf("compact: %+v, want Kept=4 Expired=3", cs)
	}
	if sizeAfter := shardBytes(t, dir); sizeAfter >= sizeBefore {
		t.Fatalf("compaction did not shrink shards: %d -> %d bytes", sizeBefore, sizeAfter)
	}

	// The store stays writable and readable after compaction...
	if err := s.Put(testRec(8)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// ...and a reopen sees exactly the survivors: 4 fresh + 1 new.
	s2, err := Open(dir, Options{Shards: 2, TTL: time.Hour, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("reopened with %d entries, want 5", s2.Len())
	}
	for i := 4; i < 9; i++ {
		if res, ok := s2.Get(KeyOf(testRec(i))); !ok || res.Cycles != uint64(100+i) {
			t.Fatalf("survivor %d: ok=%v cycles=%d", i, ok, res.Cycles)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := s2.Get(KeyOf(testRec(i))); ok {
			t.Fatalf("expired entry %d survived compaction + reopen", i)
		}
	}
}

// TestStoreFractionalTTL pins TTLs that are not whole seconds: a 1.5s TTL
// serves an entry for the full 1.5s, and a TTL below the one-second
// timestamp resolution is refused at open instead of expiring everything.
func TestStoreFractionalTTL(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	s, err := Open(dir, Options{Shards: 1, TTL: 1500 * time.Millisecond, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRec(0)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1200 * time.Millisecond)
	if _, ok := s.Get(KeyOf(testRec(0))); !ok {
		t.Fatal("entry missed 1.2s into a 1.5s TTL")
	}
	now = now.Add(400 * time.Millisecond)
	if _, ok := s.Get(KeyOf(testRec(0))); ok {
		t.Fatal("entry served 1.6s into a 1.5s TTL")
	}

	if _, err := Open(t.TempDir(), Options{TTL: 500 * time.Millisecond, Now: clock}); err == nil {
		t.Fatal("Open accepted a 500ms TTL")
	}
}

func TestStoreNewestWins(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	s, err := Open(dir, Options{Shards: 1, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRec(0)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	rec.Result.Cycles = 999
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if res, ok := s2.Get(KeyOf(rec)); !ok || res.Cycles != 999 {
		t.Fatalf("want newest write (999 cycles), got ok=%v cycles=%d", ok, res.Cycles)
	}
	if s2.Len() != 1 {
		t.Fatalf("duplicate key indexed twice: len=%d", s2.Len())
	}
}

func shardBytes(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}
