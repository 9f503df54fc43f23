package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"teasim/tea"
)

// suiteBudget is the per-cell instruction budget of the suite workload: the
// suite budget of the repository's roadmap. It is chosen, not measured from
// researchers' runs; a smaller one weighs the per-cell program Build too
// heavily against the pipeline (README.md gives the measurement).
const suiteBudget = 100_000

// suiteExps are the suite's experiments, in the canonical order their
// reports are digested in.
var suiteExps = []string{"fig5", "fig7", "fig8", "table3"}

// suiteHits is how many report requests each batch re-issues on its warm
// engine, so that the run gathers enough memo-served samples for hit_ms_p99.
// Two batches, the fewest a run makes, give 4,000: 40 beyond the p99, so
// that the tail does not rest on a dozen samples.
const suiteHits = 2000

// suiteSHA256 holds the expected SHA-256 of the canonical suite reports.
//
//go:embed suite.sha256
var suiteSHA256 string

const suiteChildArg = "suite-batch"

// suiteSetupStarts is how many more batch processes an untraced run starts
// only to time set-up; each exits as its first cell starts. Two batches
// alone give too few set-up samples for a steady median.
const suiteSetupStarts = 15

// suiteSummary is what one batch process reports back.
type suiteSummary struct {
	T0        int64        `json:"t0"`         // tracer origin, unix ns
	FirstCell int64        `json:"first_cell"` // first cell start, unix ns
	WallNS    int64        `json:"wall_ns"`
	Digest    string       `json:"digest"`
	Fig8TEA   float64      `json:"fig8_tea"`
	Fig8RA    float64      `json:"fig8_runahead"`
	Jobs      int          `json:"jobs"`
	MemoHits  int          `json:"memo_hits"`
	Cells     []cellSample `json:"cells"`
	HitNS     []int64      `json:"hit_ns"` // -1 for a failed request
	HitBad    int          `json:"hit_bad"`
	RenderNS  [3]int64     `json:"render_ns"` // traced: per format, summed over reports
	Renders   int          `json:"renders"`
	Spans     []span       `json:"spans"`
	Err       string       `json:"err,omitempty"`
}

// suiteBatch is one batch as the parent saw it.
type suiteBatch struct {
	suiteSummary
	order  []string
	traced bool
	setupS float64
	rssMiB float64
}

// runSuite runs suite batches, each in a fresh process as every teaexp
// invocation is, while another batch, as long as the last one, ends within
// the run's time.
func runSuite(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	deadline := time.Now().Add(time.Duration(rc.seconds) * time.Second)
	var batches []suiteBatch
	minBatches := 2
	if rc.trace {
		minBatches = 4 // alternate untraced and traced batches
	}
	var last time.Duration
	for i := 0; len(batches) < minBatches || time.Now().Add(last).Before(deadline); i++ {
		t := time.Now()
		rng := newRand(rc.seed, fmt.Sprintf("suite-order-%d", i))
		order := append([]string(nil), suiteExps...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		traced := rc.trace && i%2 == 1
		b, err := suiteRunBatch(ctx, rc, order, rc.seed*1000+int64(i), traced, false)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		last = time.Since(t)
		if traced {
			tr.add(b.Spans, b.T0-tr.t0.UnixNano())
			o.roots++
		}
	}

	want := strings.Fields(suiteSHA256)
	var setup, wall, kips, rss, rate, hitMS, coldMS, trWall, trHit []float64
	var cells []cellSample
	for _, b := range batches {
		jobs := b.Jobs
		o.attempted += jobs + len(b.HitNS)
		bad := 0
		if b.Err != "" {
			o.problemf("batch: %s", b.Err)
			bad = jobs
		} else if len(want) == 0 || b.Digest != want[0] {
			o.problemf("suite report digest %s, want %v", b.Digest, want)
			bad = jobs
		}
		for _, c := range b.Cells {
			if c.Err && bad < jobs {
				bad++
			}
		}
		o.failed += bad + b.HitBad
		hits := make([]float64, len(b.HitNS))
		for i, ns := range b.HitNS {
			hits[i] = float64(ns) / 1e6
			if ns < 0 {
				hits[i] = math.Inf(1)
			}
		}
		if b.traced {
			trWall = append(trWall, float64(b.WallNS)/1e9)
			trHit = append(trHit, median(hits))
			cells = append(cells, b.Cells...)
			if b.Renders > 0 {
				for i, name := range []string{"render.json_us", "render.csv_us", "render.text_us"} {
					o.metrics[name] = float64(b.RenderNS[i]) / 1e3 / float64(b.Renders)
				}
			}
			o.metrics["engine.jobs"] = float64(b.Jobs)
			o.metrics["engine.memo_hit_ratio"] = float64(b.MemoHits) / float64(b.Jobs)
			var busy int64
			for _, c := range b.Cells {
				busy += c.NS
			}
			o.metrics["engine.overhead_ms"] = float64(b.WallNS-busy) / 1e6
			continue
		}
		var instr uint64
		for _, c := range b.Cells {
			instr += c.Instr
			coldMS = append(coldMS, cellMS(c))
		}
		w := float64(b.WallNS) / 1e9
		setup = append(setup, b.setupS)
		wall = append(wall, w)
		kips = append(kips, float64(instr)/1e3/w)
		rss = append(rss, b.rssMiB)
		rate = append(rate, float64(jobs)/w)
		hitMS = append(hitMS, hits...)
		o.notef("batch order=%s wall=%.3fs setup=%.4fs simulated=%d cells memo_hits=%d rss=%.1fMiB",
			strings.Join(b.order, ","), w, b.setupS, len(b.Cells), b.MemoHits, b.rssMiB)
	}
	if last := batches[len(batches)-1]; last.Err == "" {
		suiteAccuracyNote(o, last.Fig8TEA, last.Fig8RA)
	}
	if rc.trace {
		cellLayers(o, cells)
		o.metrics["trace.wall_s_overhead"] = median(trWall) - median(wall)
		o.metrics["trace.hit_ms_p50_overhead"] = median(trHit) - median(hitMS)
		return o, nil
	}
	for i := 0; i < suiteSetupStarts; i++ {
		b, err := suiteRunBatch(ctx, rc, suiteExps, 0, false, true)
		if err != nil {
			return nil, err
		}
		setup = append(setup, b.setupS)
	}
	o.notef("setup_s: %d samples, %d of them set-up-only starts", len(setup), suiteSetupStarts)
	o.metrics["setup_s"] = median(setup)
	o.metrics["wall_s"] = median(wall)
	o.metrics["sim_kips"] = median(kips)
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["req_per_s"] = median(rate)
	o.setPct("hit_ms_p50", hitMS, 50)
	o.setPct("hit_ms_p99", hitMS, 99)
	o.setPct("cold_ms_p50", coldMS, 50)
	o.setPct("cold_ms_p90", coldMS, 90)
	return o, nil
}

// suiteAccuracyNote sets the model's Fig 8 geomeans beside the paper's.
func suiteAccuracyNote(o *outcome, teaGM, raGM float64) {
	teaPct, raPct := 100*(teaGM-1), 100*(raGM-1)
	o.notef("model accuracy: simulated Fig 8 geomean TEA %+.1f%% vs paper +10.1%% (gap %+.1f points), "+
		"Branch Runahead %+.1f%% vs paper +7.3%% (gap %+.1f points), at %d instructions per cell",
		teaPct, teaPct-10.1, raPct, raPct-7.3, suiteBudget)
	o.notef("model accuracy: modelled caches and predictors start empty (no warm-up); " +
		"no hardware reference exists, so the gaps compare with the paper's reported figures only")
}

// suiteRunBatch runs one batch in a child process and reads its summary.
// With setupOnly the child stops as its first cell starts.
func suiteRunBatch(ctx context.Context, rc runConfig, order []string, hitSeed int64, traced, setupOnly bool) (suiteBatch, error) {
	args := []string{suiteChildArg, "-order", strings.Join(order, ","),
		"-hit-seed", fmt.Sprint(hitSeed), "-trace=" + fmt.Sprint(traced), "-setup-only=" + fmt.Sprint(setupOnly)}
	cmd := exec.CommandContext(ctx, filepath.Join(rc.exe, "perfbench"), args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return suiteBatch{}, fmt.Errorf("suite batch: %w", err)
	}
	b := suiteBatch{traced: traced, rssMiB: procMaxRSS(cmd.ProcessState)}
	if err := json.Unmarshal(out.Bytes(), &b.suiteSummary); err != nil {
		return suiteBatch{}, fmt.Errorf("suite batch summary: %w", err)
	}
	b.order = order
	b.setupS = float64(b.FirstCell-start.UnixNano()) / 1e9
	return b, nil
}

// suiteChild is the batch process: it runs the suite's experiments on one
// shared 1-worker engine, then re-issues report requests on the warm engine.
func suiteChild(args []string) int {
	fs := flag.NewFlagSet(suiteChildArg, flag.ContinueOnError)
	orderArg := fs.String("order", strings.Join(suiteExps, ","), "experiment order")
	hitSeed := fs.Int64("hit-seed", 1, "seed of the re-issued report requests")
	traced := fs.Bool("trace", false, "record spans and per-cell layer figures")
	setupOnly := fs.Bool("setup-only", false, "exit as the first cell starts, reporting only its start")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sum, err := suiteBatchRun(strings.Split(*orderArg, ","), *hitSeed, *traced, *setupOnly)
	if err != nil {
		sum.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func suiteBatchRun(order []string, hitSeed int64, traced, setupOnly bool) (suiteSummary, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var sum suiteSummary
	var first atomic.Int64
	cr := &cellRunner{tr: tr}
	jobs := 0
	eng := tea.NewEngine(1, tea.WithRunFunc(cr.run), tea.WithProgress(func(ev tea.JobEvent) {
		if ev.Phase == tea.JobStarted {
			now := time.Now().UnixNano()
			first.CompareAndSwap(0, now)
			jobs++
			if setupOnly {
				json.NewEncoder(os.Stdout).Encode(suiteSummary{FirstCell: now})
				os.Exit(0)
			}
		}
	}))
	opts := tea.ExpOptions{MaxInstructions: suiteBudget, Scale: 1, Engine: eng}

	ctx, endBatch := tr.begin(context.Background(), "batch")
	reports := map[string]*tea.Report{}
	jsonOut := map[string][]byte{}
	start := time.Now()
	for _, name := range order {
		ectx, end := tr.begin(ctx, "engine")
		rep, err := tea.RunExperiment(ectx, name, opts)
		end()
		if err != nil {
			return sum, err
		}
		_, end = tr.begin(ctx, "render")
		b, err := render(rep, tea.FormatJSON)
		end()
		if err != nil {
			return sum, err
		}
		reports[name], jsonOut[name] = rep, b
	}
	sum.WallNS = int64(time.Since(start))
	endBatch()
	sum.FirstCell = first.Load()
	sum.Jobs = jobs
	sum.MemoHits = eng.MemoStats().Hits
	sum.Cells = cr.samples()

	var canon []byte
	for _, name := range suiteExps {
		if reports[name] == nil {
			return sum, fmt.Errorf("experiment %s missing from order %v", name, order)
		}
		canon = append(canon, jsonOut[name]...)
	}
	sum.Digest = digest(canon)
	if rows, ok := reports["fig8"].Rows().([]tea.Fig8Row); ok {
		var teaS, raS []float64
		for _, r := range rows {
			teaS, raS = append(teaS, r.TEA), append(raS, r.Runahead)
		}
		sum.Fig8TEA, sum.Fig8RA = tea.Geomean(teaS), tea.Geomean(raS)
	}

	// Expected bytes of every re-issued request, and, when traced, the
	// time each report takes to render in each format.
	want := map[string][][]byte{}
	for _, name := range suiteExps {
		for i, f := range formats {
			t := time.Now()
			b, err := render(reports[name], f)
			if err != nil {
				return sum, err
			}
			sum.RenderNS[i] += int64(time.Since(t))
			want[name] = append(want[name], b)
		}
		sum.Renders++
	}
	if !traced {
		sum.RenderNS, sum.Renders = [3]int64{}, 0
	}

	// Start the re-issued requests from a collected heap, so that the
	// garbage the batch left does not decide when their collections fall.
	runtime.GC()
	rng := newRand(hitSeed, "suite-hits")
	for i := 0; i < suiteHits; i++ {
		name := suiteExps[rng.Intn(len(suiteExps))]
		fi := rng.Intn(len(formats))
		d, ok := reissue(context.Background(), tr, name, opts, formats[fi], want[name][fi])
		if !ok {
			d = -1
			sum.HitBad++
		}
		sum.HitNS = append(sum.HitNS, int64(d))
	}
	if tr != nil {
		sum.T0 = tr.t0.UnixNano()
		sum.Spans = tr.snapshot()
	}
	if sum.FirstCell == 0 {
		return sum, errors.New("no cell started")
	}
	return sum, nil
}
