// Package store is a sharded, content-addressed, durable result store: the
// crash-safe journal (tea.Journal) generalized from one append-only file
// into a long-lived service cache. Results are addressed by the engine's
// memo tuple — (workload, mode, resolved-spec fingerprint, budget, scale) —
// so any two requests naming the same machine point share one stored
// simulation, however they spelled it (preset, custom spec, or patches).
//
// Layout: a directory of shard-NNN.jsonl files. Each line is a small
// envelope {"at": unixSeconds, "rec": <sealed tea.JournalRecord>}; the inner
// record carries its own version and checksum (tea.JournalRecord.Seal), so a
// torn or bit-rotted line is detected and dropped on open exactly like a
// journal resume. Appends hash the key onto a shard and fsync, keeping
// writer contention per-shard rather than global.
//
// Entries older than the configured TTL stop being served (a Get counts
// Expired and misses); Compact rewrites every shard dropping expired and
// superseded records, bounding disk growth for a daemon that runs for
// months.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"teasim/internal/telemetry"
	"teasim/tea"
)

// Key addresses one stored simulation: the engine's memo tuple.
type Key struct {
	Workload string
	Mode     string // tea.Mode.String() form
	Spec     string // resolved spec fingerprint, %016x
	MaxInstr uint64
	Scale    int
}

// KeyOf derives the store key from a journal record.
func KeyOf(rec tea.JournalRecord) Key {
	return Key{
		Workload: rec.Workload,
		Mode:     rec.Mode.String(),
		Spec:     rec.Spec,
		MaxInstr: rec.MaxInstr,
		Scale:    rec.Scale,
	}
}

// String renders the key's canonical address (also the shard-hash input).
func (k Key) String() string {
	return fmt.Sprintf("%s/%s@%s/n%d/s%d", k.Workload, k.Mode, k.Spec, k.MaxInstr, k.Scale)
}

// Options configures a store.
type Options struct {
	// Shards is the shard-file count (0 = 8). More shards mean less append
	// contention; the count may change between opens — existing records are
	// re-read from whatever file holds them, new appends use the new layout.
	Shards int
	// TTL bounds how long an entry is served after it was written (0 =
	// forever). Expired entries miss on Get and are dropped by Compact.
	// Entries carry whole-second timestamps, so a TTL above 0 must be at
	// least one second.
	TTL time.Duration
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
	// Telemetry, when set, receives one EvCorruptRecord event per shard
	// file that had corrupt or torn-tail lines dropped while opening (nil =
	// no events). Silent data loss is the one failure a durable store must
	// not have; the event makes every dropped record observable.
	Telemetry telemetry.Sink
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries    int    // live (non-expired at last touch) indexed entries
	Hits       uint64 // Gets served from the index
	Misses     uint64 // Gets with no usable entry
	Expired    uint64 // Gets that found only an expired entry
	Puts       uint64 // records appended this process
	Dropped    int    // lines dropped while opening (Corrupt + Superseded)
	Corrupt    int    // torn or checksum-failing lines dropped while opening
	Superseded int    // intact lines shadowed by a newer write of their key
}

// envelope is the on-disk line framing: the write timestamp (for TTL) around
// the sealed journal record.
type envelope struct {
	At  int64             `json:"at"`
	Rec tea.JournalRecord `json:"rec"`
}

// entry is one indexed result.
type entry struct {
	rec tea.JournalRecord
	at  int64
}

// shard is one index partition with its backing file.
type shard struct {
	mu    sync.Mutex
	f     *os.File
	index map[Key]entry
	buf   []byte
}

// Store is a sharded content-addressed result store. It is safe for
// concurrent use.
type Store struct {
	dir    string
	ttl    time.Duration
	now    func() time.Time
	tel    telemetry.Sink
	shards []*shard

	mu         sync.Mutex // counters
	hits       uint64
	misses     uint64
	expired    uint64
	puts       uint64
	corrupt    int
	superseded int
}

// Open opens (creating if needed) the store rooted at dir, reading every
// existing shard file and indexing the intact records. Records that fail
// their checksum are dropped (counted in Stats.Dropped); a duplicate key
// keeps the newest write, matching compaction.
func Open(dir string, o Options) (*Store, error) {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.TTL > 0 && o.TTL < time.Second {
		return nil, fmt.Errorf("store: open: TTL %v is below the one-second resolution of entry timestamps", o.TTL)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, ttl: o.TTL, now: o.Now, tel: o.Telemetry, shards: make([]*shard, o.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{index: make(map[Key]entry)}
	}
	// Read every shard file present, whatever shard count wrote it; each
	// record is indexed under the CURRENT layout's shard so lookups and
	// compaction agree on ownership.
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	for _, path := range matches {
		if err := s.load(path); err != nil {
			return nil, err
		}
	}
	for i, sh := range s.shards {
		f, err := os.OpenFile(s.shardPath(i), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: open shard: %w", err)
		}
		sh.f = f
	}
	return s, nil
}

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.jsonl", i))
}

// shardOf maps a key onto its owning shard.
func (s *Store) shardOf(k Key) *shard {
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	return s.shards[h.Sum64()%uint64(len(s.shards))]
}

// load indexes one existing shard file.
func (s *Store) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	corrupt, superseded := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env envelope
		if json.Unmarshal(line, &env) != nil || !env.Rec.Verify() {
			corrupt++
			continue
		}
		key := KeyOf(env.Rec)
		sh := s.shardOf(key)
		if have, ok := sh.index[key]; ok && have.at > env.At {
			superseded++ // shadowed by a newer record already indexed
			continue
		}
		sh.index[key] = entry{rec: env.Rec, at: env.At}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: load %s: %w", path, err)
	}
	s.mu.Lock()
	s.corrupt += corrupt
	s.superseded += superseded
	s.mu.Unlock()
	if corrupt > 0 && s.tel != nil {
		s.tel.Event(&telemetry.Event{Kind: telemetry.EvCorruptRecord, Job: path, Count: corrupt})
	}
	return nil
}

// fresh reports whether an entry written at unix second `at` is still within
// the TTL.
func (s *Store) fresh(at int64) bool {
	return s.ttl == 0 || s.now().Sub(time.Unix(at, 0)) < s.ttl
}

// Get returns the stored result for a key, if present and fresh.
func (s *Store) Get(k Key) (tea.Result, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	ent, ok := sh.index[k]
	if ok && !s.fresh(ent.at) {
		delete(sh.index, k) // lazily retire; the line dies at the next Compact
		ok = false
		sh.mu.Unlock()
		s.mu.Lock()
		s.expired++
		s.misses++
		s.mu.Unlock()
		return tea.Result{}, false
	}
	sh.mu.Unlock()
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return tea.Result{}, false
	}
	return ent.rec.Result, true
}

// Put durably appends one record (sealed, timestamped, fsynced) and indexes
// it.
func (s *Store) Put(rec tea.JournalRecord) error {
	sealed, err := rec.Seal()
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	key := KeyOf(sealed)
	at := s.now().Unix()
	line, err := json.Marshal(envelope{At: at, Rec: sealed})
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.buf = append(sh.buf[:0], line...)
	sh.buf = append(sh.buf, '\n')
	if _, err := sh.f.Write(sh.buf); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("store: put sync: %w", err)
	}
	sh.index[key] = entry{rec: sealed, at: at}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// Len returns the number of indexed entries (including any not yet noticed
// to be expired).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	// Count entries before taking s.mu: Put holds a shard lock while
	// touching the counters, so nesting the locks the other way here would
	// invert the order.
	entries := s.Len()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:    entries,
		Hits:       s.hits,
		Misses:     s.misses,
		Expired:    s.expired,
		Puts:       s.puts,
		Dropped:    s.corrupt + s.superseded,
		Corrupt:    s.corrupt,
		Superseded: s.superseded,
	}
}

// CompactStats reports one compaction pass.
type CompactStats struct {
	Kept    int // live records rewritten
	Expired int // records dropped for age
}

// Compact rewrites every shard file from its live index, dropping expired
// and superseded records, then atomically replaces the old file. The store
// stays usable throughout; each shard is locked only while its own file is
// rewritten.
func (s *Store) Compact() (CompactStats, error) {
	var cs CompactStats
	for i, sh := range s.shards {
		sh.mu.Lock()
		kept := make([]envelope, 0, len(sh.index))
		for key, ent := range sh.index {
			if !s.fresh(ent.at) {
				delete(sh.index, key)
				cs.Expired++
				continue
			}
			kept = append(kept, envelope{At: ent.at, Rec: ent.rec})
		}
		err := s.rewriteShard(i, sh, kept)
		sh.mu.Unlock()
		if err != nil {
			return cs, err
		}
		cs.Kept += len(kept)
	}
	return cs, nil
}

// rewriteShard writes the kept envelopes to a temp file, fsyncs, renames it
// over the shard, and swaps the shard's append handle. Called with the shard
// locked.
func (s *Store) rewriteShard(i int, sh *shard, kept []envelope) error {
	path := s.shardPath(i)
	tmp, err := os.CreateTemp(s.dir, "compact-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, env := range kept {
		line, err := json.Marshal(env)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if sh.f != nil {
		sh.f.Close()
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	sh.f = f
	return nil
}

// Close closes every shard file. The store must not be used afterwards.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.f != nil {
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}
