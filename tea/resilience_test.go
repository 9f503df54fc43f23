package tea

// Failure-handling tests: deadlines, the hang watchdog, panic retry,
// quarantine repro bundles, and the journal-backed kill/resume contract.
// Everything drives the engine through the runFn seam so the failure modes
// are exact and the tests are fast.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// stubResult is a deterministic fake simulation outcome: same (workload,
// config) in, same Result out, like the real simulator.
func stubResult(w string, c Config) Result {
	return Result{
		Workload:     w,
		Mode:         c.Mode,
		Cycles:       uint64(len(w))*1000 + uint64(c.Mode) + 1,
		Instructions: c.MaxInstructions,
	}
}

// recordingSink captures telemetry events for assertions.
type recordingSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (s *recordingSink) Event(e *telemetry.Event) {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
}
func (s *recordingSink) Interval(*telemetry.Interval) {}
func (s *recordingSink) Close() error                 { return nil }

func (s *recordingSink) failures() []telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []telemetry.Event
	for _, e := range s.events {
		if e.Kind == telemetry.EvJobFailure {
			out = append(out, e)
		}
	}
	return out
}

func TestJobDeadline(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{Timeout: 30 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		<-ctx.Done() // a cell that never finishes on its own
		return Result{}, ctx.Err()
	}
	_, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil || !strings.Contains(err.Error(), "job deadline exceeded") {
		t.Fatalf("err = %v, want a job deadline error", err)
	}
	if !strings.Contains(err.Error(), "bfs/tea") {
		t.Errorf("deadline error does not name the cell: %v", err)
	}
}

func TestHangWatchdogKillsStalledJob(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{HangTimeout: 60 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if c.Heartbeat == nil {
			t.Error("policy with HangTimeout did not install a heartbeat")
			return Result{}, errors.New("no heartbeat")
		}
		c.Heartbeat.Beat(1) // one beat, then wedge
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	_, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil || !strings.Contains(err.Error(), "no heartbeat progress") {
		t.Fatalf("err = %v, want a hang watchdog error", err)
	}
}

func TestHangWatchdogSparesAdvancingJob(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{HangTimeout: 80 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		// Slow but alive: beats arrive well inside the hang timeout for
		// longer than the timeout itself.
		for i := uint64(1); i <= 8; i++ {
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			case <-time.After(20 * time.Millisecond):
				c.Heartbeat.Beat(i)
			}
		}
		return stubResult(w, c), nil
	}
	res, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err != nil {
		t.Fatalf("advancing job was killed: %v", err)
	}
	if res[0].Cycles == 0 {
		t.Error("advancing job returned no result")
	}
}

func TestRetryRecoversFlakyPanic(t *testing.T) {
	sink := &recordingSink{}
	e := NewEngine(1, WithTelemetry(sink),
		WithPolicy(JobPolicy{Retries: 3, RetryBackoff: time.Millisecond}))
	var attempts atomic.Int32
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if attempts.Add(1) < 3 {
			panic("transient corruption")
		}
		return stubResult(w, c), nil
	}
	res, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err != nil {
		t.Fatalf("retried job still failed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if !reflect.DeepEqual(res[0], stubResult("bfs", Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1})) {
		t.Errorf("unexpected result after retry: %+v", res[0])
	}
	// Satellite: every failed attempt leaves a telemetry trace.
	fails := sink.failures()
	if len(fails) != 2 {
		t.Fatalf("got %d EvJobFailure events, want 2 (one per panicking attempt)", len(fails))
	}
	if !strings.Contains(fails[0].Job, "bfs/tea@") {
		t.Errorf("failure event job id = %q, want workload/mode@spec", fails[0].Job)
	}
	if !strings.Contains(fails[0].Err, "transient corruption") {
		t.Errorf("failure event err = %q, want the panic value", fails[0].Err)
	}
	// Retried cells are distinguishable from first failures: the attempt
	// number and cumulative backoff ride on the event.
	if fails[0].Attempt != 1 || fails[0].BackoffMS != 0 {
		t.Errorf("first failure carries attempt=%d backoff=%dms, want 1/0",
			fails[0].Attempt, fails[0].BackoffMS)
	}
	if fails[1].Attempt != 2 || fails[1].BackoffMS < 1 {
		t.Errorf("second failure carries attempt=%d backoff=%dms, want 2 with accrued backoff",
			fails[1].Attempt, fails[1].BackoffMS)
	}
}

func TestPanicErrorCarriesStackAndIdentity(t *testing.T) {
	e := NewEngine(1)
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		panic("boom in the scheduler")
	}
	_, err := e.Map([]Job{{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil {
		t.Fatal("panicking job returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError in the chain", err)
	}
	if pe.Workload != "mcf" || pe.Mode != ModeTEA {
		t.Errorf("PanicError identity = %s/%s, want mcf/tea", pe.Workload, pe.Mode)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError stack missing or not a goroutine dump: %q", pe.Stack)
	}
	if len(pe.Stack) > panicStackLimit+32 {
		t.Errorf("stack not bounded: %d bytes", len(pe.Stack))
	}
	msg := err.Error()
	if !strings.Contains(msg, "panic in mcf/tea (spec ") || !strings.Contains(msg, "boom in the scheduler") {
		t.Errorf("error message missing identity or panic value: %s", firstLine(msg))
	}
}

func TestQuarantineWritesLoadableReproBundle(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(2, WithPolicy(JobPolicy{ReproDir: dir}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if w == "bad" {
			panic("corrupted cell")
		}
		return stubResult(w, c), nil
	}
	jobs := []Job{
		{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "bad", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
	}
	results, errs, err := e.MapPartial(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells failed: %v, %v", errs[0], errs[2])
	}
	if results[0].Cycles == 0 || results[2].Cycles == 0 {
		t.Error("healthy cells returned no results alongside the quarantined one")
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "repro bundle: ") {
		t.Fatalf("quarantined cell error = %v, want a repro bundle pointer", errs[1])
	}

	// The bundle must round-trip: the written spec loads and validates like
	// any -config input, and its fingerprint matches the bundle name.
	matches, err := filepath.Glob(filepath.Join(dir, "bad-tea-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specPath, metaPath string
	for _, m := range matches {
		if strings.HasSuffix(m, ".meta.json") {
			metaPath = m
		} else {
			specPath = m
		}
	}
	if specPath == "" || metaPath == "" {
		t.Fatalf("bundle incomplete, got %v", matches)
	}
	loaded, err := spec.Load(specPath)
	if err != nil {
		t.Fatalf("bundle spec does not load: %v", err)
	}
	if !strings.Contains(specPath, loaded.FingerprintString()) {
		t.Errorf("bundle name %s does not carry the spec fingerprint %s", specPath, loaded.FingerprintString())
	}
	metaJSON, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Workload string `json:"workload"`
		Mode     string `json:"mode"`
		MaxInstr uint64 `json:"max_instr"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		t.Fatalf("bundle metadata does not parse: %v", err)
	}
	if meta.Workload != "bad" || meta.Mode != "tea" || meta.MaxInstr != 1000 {
		t.Errorf("bundle metadata = %+v, want the failed cell's identity", meta)
	}
	if !strings.Contains(meta.Error, "corrupted cell") {
		t.Errorf("bundle metadata error = %q, want the panic value", meta.Error)
	}
}

func TestPartialExperimentRendersErrorRows(t *testing.T) {
	e := NewEngine(2)
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if w == "mcf" && c.Mode == ModeTEA {
			panic("quarantine me")
		}
		return stubResult(w, c), nil
	}
	opts := ExpOptions{Workloads: []string{"bfs", "mcf"}, Engine: e, Partial: true}
	rep, err := fig5(context.Background(), opts)
	if err != nil {
		t.Fatalf("partial experiment aborted: %v", err)
	}
	rows := rep.Rows().([]SpeedupRow)
	if rows[0].Err != "" || rows[0].Speedup == 0 {
		t.Errorf("healthy row polluted: %+v", rows[0])
	}
	if rows[1].Err == "" || !strings.Contains(rows[1].Err, "quarantine me") {
		t.Errorf("quarantined row not annotated: %+v", rows[1])
	}
	var sb strings.Builder
	if err := rep.Write(&sb, FormatText); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ERROR: ") {
		t.Errorf("text report does not mark the quarantined row:\n%s", out)
	}
	if !strings.Contains(out, "geomean") && !strings.Contains(out, "Geomean") {
		t.Errorf("text report lost its aggregate footer:\n%s", out)
	}
}

// TestCancelJournalResume is the kill/resume contract end to end at the
// library level: a batch cancelled mid-flight keeps its completed prefix, the
// journal holds exactly the completed cells, and a resumed engine
// re-simulates only the missing ones to an identical final state.
func TestCancelJournalResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	jobs := []Job{
		{Workload: "bfs", Cfg: Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}},
		{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
	}

	// Interrupted run: single worker for a deterministic completion prefix;
	// the third cell observes the cancellation mid-simulation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(1, WithJournal(j1))
	calls := 0
	e1.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		calls++
		if calls == 3 {
			cancel() // the SIGINT arrives while cell 3 is in flight
			return Result{}, ctx.Err()
		}
		return stubResult(w, c), nil
	}
	partial, err := e1.MapContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial[0], stubResult("bfs", jobs[0].Cfg)) ||
		!reflect.DeepEqual(partial[1], stubResult("bfs", jobs[1].Cfg)) {
		t.Errorf("completed prefix lost: %+v", partial[:2])
	}
	if partial[2].Cycles != 0 || partial[3].Cycles != 0 {
		t.Errorf("uncompleted cells carry results: %+v", partial[2:])
	}

	// The journal holds exactly the completed cells, in completion order.
	recs, dropped, err := ReadJournal(path)
	if err != nil || dropped != 0 {
		t.Fatalf("ReadJournal: %d dropped, err %v", dropped, err)
	}
	if len(recs) != 2 || recs[0].Workload != "bfs" || recs[1].Mode != ModeTEA {
		t.Fatalf("journal holds %d records (%+v), want exactly the 2 completed cells", len(recs), recs)
	}

	// Resumed run: seeds from the journal, re-simulates only the 2 missing
	// cells, and lands on results identical to a clean uninterrupted run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(1, WithJournal(j2))
	calls2 := 0
	e2.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		calls2++
		return stubResult(w, c), nil
	}
	if n := e2.SeedJournal(recs); n != 2 {
		t.Fatalf("seeded %d cells, want 2", n)
	}
	resumed, err := e2.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if calls2 != 2 {
		t.Errorf("resumed run simulated %d cells, want only the 2 missing", calls2)
	}
	ms := e2.MemoStats()
	if ms.Seeded != 2 || ms.Entries != 4 {
		t.Errorf("resumed MemoStats = %+v, want 4 entries of which 2 seeded", ms)
	}

	e3 := NewEngine(1)
	e3.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		return stubResult(w, c), nil
	}
	clean, err := e3.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Errorf("resumed results differ from a clean run:\nresumed: %+v\nclean:   %+v", resumed, clean)
	}

	// The resumed run appended only the cells it simulated — no duplicates.
	recs, dropped, err = ReadJournal(path)
	if err != nil || dropped != 0 {
		t.Fatalf("ReadJournal after resume: %d dropped, err %v", dropped, err)
	}
	if len(recs) != 4 {
		t.Errorf("journal holds %d records after resume, want 4", len(recs))
	}
}
