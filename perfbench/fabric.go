package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"teasim/tea"
	"teasim/tea/fabric"
)

const (
	// fabricBudget keeps each cell short, so that spawn, the frame protocol
	// and the fsynced journals are a large share of the batch.
	fabricBudget  = 10_000
	fabricWorkers = 2
	// fabricHits is how many report requests each batch re-issues on its
	// warm engine: enough for a p99 of its own, with 10 samples beyond it.
	fabricHits = 1000
	fabricExp  = "fig8"
	// fabricSetupStarts is how many more coordinators an untraced run
	// starts and closes only to time set-up, for a steady setup_s median.
	fabricSetupStarts = 10
)

// workerProc is one spawned teaworker as the benchmark's SpawnFunc saw it.
type workerProc struct {
	spawned time.Time
	ready   chan time.Time // the hello frame's arrival
	reaped  chan float64   // peak RSS in MiB, once the process is reaped
}

// helloReader passes a worker's output through, noting when its first line,
// the hello frame, has arrived.
type helloReader struct {
	io.ReadCloser
	once  sync.Once
	ready chan time.Time
}

func (h *helloReader) Read(p []byte) (int, error) {
	n, err := h.ReadCloser.Read(p)
	if bytes.IndexByte(p[:n], '\n') >= 0 {
		h.once.Do(func() { h.ready <- time.Now() })
	}
	return n, err
}

// spawner returns a fabric.SpawnFunc that starts the checkout's teaworker
// the way the coordinator's default does, recording each worker's spawn,
// readiness and peak memory.
func spawner(exe string, procs *[]*workerProc) fabric.SpawnFunc {
	return func(id int, journal string) (*fabric.Proc, error) {
		cmd := exec.Command(filepath.Join(exe, "teaworker"), "-journal", journal)
		cmd.Env = append(os.Environ(), fmt.Sprintf("TEASIM_WORKER_ID=%d", id))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		wp := &workerProc{spawned: time.Now(), ready: make(chan time.Time, 1), reaped: make(chan float64, 1)}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		*procs = append(*procs, wp) // fabric.New calls Spawn in turn, before it returns
		return &fabric.Proc{
			In:   stdin,
			Out:  &helloReader{ReadCloser: stdout, ready: wp.ready},
			Kill: func() { cmd.Process.Kill() },
			Wait: func() error {
				err := cmd.Wait()
				wp.reaped <- procMaxRSS(cmd.ProcessState)
				return err
			},
		}, nil
	}
}

// fabricBatch is one coordinator lifetime: spawn, one fig8 batch, close.
type fabricBatch struct {
	traced    bool
	setupS    float64
	spawnMS   []float64
	wallS     float64
	body      []byte
	jobs      int
	memoHits  int
	cells     []cellSample
	journaled int
	stats     fabric.Stats
	workerRSS float64
	hitMS     []float64
	hitBad    int
	renderUS  [3]float64 // the report rendered once in each format
}

func runFabric(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	deadline := time.Now().Add(time.Duration(rc.seconds) * time.Second)
	var batches []fabricBatch
	minBatches := 3
	if rc.trace {
		minBatches = 4
	}
	for i := 0; len(batches) < minBatches || time.Now().Before(deadline); i++ {
		traced := rc.trace && i%2 == 1
		var btr *tracer
		if traced {
			btr = tr
		}
		b, err := fabricRunBatch(ctx, rc, i, btr, newRand(rc.seed, fmt.Sprintf("fabric-hits-%d", i)), false)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	var setupOnly []float64
	for i := 0; i < fabricSetupStarts && !rc.trace; i++ {
		b, err := fabricRunBatch(ctx, rc, len(batches)+i, nil, nil, true)
		if err != nil {
			return nil, err
		}
		setupOnly = append(setupOnly, b.setupS)
	}
	// The coordinator's peak is read before the in-process reference run,
	// which would otherwise count against it.
	coordRSS := selfMaxRSS()

	ref := &cellRunner{tr: tr}
	eng := tea.NewEngine(1, tea.WithRunFunc(ref.run))
	_, want, err := answer(ctx, eng, serveReq{Experiment: fabricExp, MaxInstructions: fabricBudget, Format: "json"})
	if err != nil {
		return nil, err
	}
	local := map[string]int64{}
	for _, c := range ref.samples() {
		local[c.Workload+"/"+c.Mode] = c.NS
	}

	var setup, wall, kips, rate, hit, cold, rss, spawn, overhead, trWall, trHit, dispatched, shards []float64
	var hitByBatch [][]float64
	var renderUS [3][]float64
	var requeues, fallbacks int
	for _, b := range batches {
		o.attempted += b.jobs + len(b.hitMS)
		bad := b.hitBad
		switch {
		case !bytes.Equal(b.body, want):
			o.problemf("fabric report differs from the in-process run")
			bad += b.jobs
		case b.journaled != len(b.cells):
			o.problemf("worker journals hold %d cells, %d were simulated", b.journaled, len(b.cells))
			bad += b.jobs
		}
		o.failed += bad
		requeues += b.stats.Requeues
		fallbacks += b.stats.Fallbacks
		dispatched = append(dispatched, float64(b.stats.Dispatched))
		shards = append(shards, float64(b.stats.Shards))
		spawn = append(spawn, b.spawnMS...)
		for _, c := range b.cells {
			if ns, ok := local[c.Workload+"/"+c.Mode]; ok {
				overhead = append(overhead, float64(c.NS-ns)/1e6)
			}
		}
		if b.traced {
			o.roots++
			trWall = append(trWall, b.wallS)
			trHit = append(trHit, median(b.hitMS))
			for k := range renderUS {
				renderUS[k] = append(renderUS[k], b.renderUS[k])
			}
			var busy int64
			for _, c := range b.cells {
				busy += c.NS
			}
			o.metrics["engine.jobs"] = float64(b.jobs)
			o.metrics["engine.memo_hit_ratio"] = float64(b.memoHits) / float64(b.jobs)
			o.metrics["engine.overhead_ms"] = b.wallS*1e3 - float64(busy)/1e6/fabricWorkers
			continue
		}
		var instr uint64
		for _, c := range b.cells {
			instr += c.Instr
			cold = append(cold, cellMS(c))
		}
		setup = append(setup, b.setupS)
		wall = append(wall, b.wallS)
		kips = append(kips, float64(instr)/1e3/b.wallS)
		rate = append(rate, float64(b.jobs)/b.wallS)
		rss = append(rss, coordRSS+b.workerRSS)
		hit = append(hit, b.hitMS...)
		hitByBatch = append(hitByBatch, b.hitMS)
		o.notef("batch setup=%.4fs wall=%.3fs cells=%d shards=%d worker_rss=%.1fMiB",
			b.setupS, b.wallS, len(b.cells), b.stats.Shards, b.workerRSS)
	}
	if rc.trace {
		cellLayers(o, ref.samples())
		for k, name := range []string{"render.json_us", "render.csv_us", "render.text_us"} {
			o.metrics[name] = median(renderUS[k])
		}
		o.metrics["fabric.spawn_ms"] = median(spawn)
		o.metrics["fabric.cell_overhead_ms"] = median(overhead)
		o.metrics["fabric.dispatched"] = median(dispatched)
		o.metrics["fabric.shards"] = median(shards)
		o.metrics["fabric.requeues"] = float64(requeues)
		o.metrics["fabric.fallbacks"] = float64(fallbacks)
		o.metrics["trace.wall_s_overhead"] = median(trWall) - median(wall)
		o.metrics["trace.hit_ms_p50_overhead"] = median(trHit) - median(hit)
		return o, nil
	}
	setup = append(setup, setupOnly...)
	o.notef("setup_s: %d samples, %d of them set-up-only starts", len(setup), len(setupOnly))
	o.metrics["setup_s"] = median(setup)
	o.metrics["wall_s"] = median(wall)
	o.metrics["sim_kips"] = median(kips)
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["req_per_s"] = median(rate)
	// Hit percentiles are taken per batch and their median reported, so
	// that a burst of host noise over a few batches does not set the tail.
	o.setBatchPct("hit_ms_p50", hitByBatch, 50)
	o.setBatchPct("hit_ms_p99", hitByBatch, 99)
	o.setPct("cold_ms_p50", cold, 50)
	o.setPct("cold_ms_p90", cold, 90)
	return o, nil
}

// fabricRunBatch spawns a 2-worker fabric, runs fig8 through it on a
// 2-worker engine, closes it, and re-issues report requests on the warm
// engine.
//
// With setupOnly it closes the fabric as soon as the workers are ready.
func fabricRunBatch(ctx context.Context, rc runConfig, i int, tr *tracer, rng *rand.Rand, setupOnly bool) (fabricBatch, error) {
	var b fabricBatch
	dir := filepath.Join(rc.workdir, fmt.Sprintf("fabric-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return b, err
	}
	defer os.RemoveAll(dir)
	var procs []*workerProc
	bctx, endBatch := tr.begin(ctx, "batch")
	start := time.Now()
	coord, err := fabric.New(fabric.Config{Workers: fabricWorkers, Dir: dir, Spawn: spawner(rc.exe, &procs)})
	if err != nil {
		return b, err
	}
	closed := false
	defer func() {
		if !closed {
			coord.Close()
		}
	}()
	timeout := time.After(30 * time.Second)
	for _, p := range procs {
		select {
		case at := <-p.ready:
			b.spawnMS = append(b.spawnMS, float64(at.Sub(p.spawned))/1e6)
		case <-timeout:
			return b, errors.New("fabric workers not ready within 30s")
		}
	}
	b.setupS = time.Since(start).Seconds()
	if setupOnly {
		coord.Close()
		closed = true
		b.workerRSS, err = reapWorkers(procs)
		return b, err
	}

	remote := &cellRunner{tr: tr, next: coord.RunFunc(nil), remote: true}
	jobs := 0 // progress callbacks are serialized by the engine
	eng := tea.NewEngine(fabricWorkers, tea.WithRunFunc(remote.run), tea.WithProgress(func(ev tea.JobEvent) {
		if ev.Phase == tea.JobStarted {
			jobs++
		}
	}))
	t := time.Now()
	ectx, end := tr.begin(bctx, "engine")
	rep, err := tea.RunExperiment(ectx, fabricExp, tea.ExpOptions{MaxInstructions: fabricBudget, Scale: 1, Engine: eng})
	end()
	if err != nil {
		return b, err
	}
	_, end = tr.begin(bctx, "render")
	b.body, err = render(rep, tea.FormatJSON)
	end()
	if err != nil {
		return b, err
	}
	b.wallS = time.Since(t).Seconds()
	b.stats = coord.Stats()
	b.jobs, b.memoHits = jobs, eng.MemoStats().Hits
	b.cells = remote.samples()
	b.traced = tr != nil

	var journals []string
	for w := 1; w <= fabricWorkers; w++ {
		journals = append(journals, filepath.Join(dir, fmt.Sprintf("worker-%d.jsonl", w)))
	}
	recs, _, err := fabric.MergeJournals(journals...)
	if err != nil {
		return b, err
	}
	b.journaled = len(recs)
	coord.Close()
	closed = true
	endBatch()
	if b.workerRSS, err = reapWorkers(procs); err != nil {
		return b, err
	}

	want := make([][]byte, len(formats))
	for k, f := range formats {
		t := time.Now()
		if want[k], err = render(rep, f); err != nil {
			return b, err
		}
		b.renderUS[k] = float64(time.Since(t)) / 1e3
	}
	runtime.GC() // as in the suite: re-issued requests start from a collected heap
	opts := tea.ExpOptions{MaxInstructions: fabricBudget, Scale: 1, Engine: eng}
	for k := 0; k < fabricHits; k++ {
		fi := rng.Intn(len(formats))
		d, ok := reissue(ctx, tr, fabricExp, opts, formats[fi], want[fi])
		ms := float64(d) / 1e6
		if !ok {
			ms = math.Inf(1)
			b.hitBad++
		}
		b.hitMS = append(b.hitMS, ms)
	}
	return b, nil
}

// reapWorkers waits for a closed fabric's workers to be reaped and returns
// the largest one's peak RSS in MiB.
func reapWorkers(procs []*workerProc) (float64, error) {
	var top float64
	for _, p := range procs {
		select {
		case rss := <-p.reaped:
			top = max(top, rss)
		case <-time.After(10 * time.Second):
			return top, errors.New("fabric worker not reaped within 10s of Close")
		}
	}
	return top, nil
}
