// Command perfbench is the repository benchmark. It runs one workload —
// suite, serve or fabric (see README.md) — for a fixed time, checks every
// output it gets against an independent in-process computation, and prints
// its metrics by name with their units. The last line of its output is one
// JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, measured by timing the benchmark's own calls into
// public functions. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// pinnedProcs is GOMAXPROCS for this process and every process it starts,
// so that no figure scales with the host's core count.
const pinnedProcs = 2

// runLimit bounds a whole run, set-up included; every process the run
// started is stopped when it expires.
const runLimit = 150 * time.Second

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports all of them; README.md gives each one's definition per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_kips", "kinstr/s"},
	{"peak_rss_mb", "MiB"},
	{"req_per_s", "req/s"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p99", "ms"},
	{"cold_ms_p50", "ms"},
	{"cold_ms_p90", "ms"},
}

// perLayer lists the metrics of a traced run. A metric is named
// <layer>.<figure>; see idleLayers for the layers a workload leaves out.
var perLayer = []metricDef{
	{"pipeline.us_per_kinstr", "us"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.allocs_per_kinstr", "allocs/kinstr"},
	{"pipeline.instructions", "count"},
	{"pipeline.cycles", "count"},
	{"companion.tea.us_per_kinstr", "us"},
	{"companion.runahead.us_per_kinstr", "us"},
	{"companion.tea.extra_uop_pct", "%"},
	{"companion.tea.early_flushes", "count"},
	{"companion.tea.accuracy", "ratio"},
	{"bpred.ns_per_branch", "ns"},
	{"bpred.branches", "count"},
	{"bpred.mispredict_ratio", "ratio"},
	{"mem.ns_per_access", "ns"},
	{"mem.accesses", "count"},
	{"mem.reject_ratio", "ratio"},
	{"workloads.build_ms", "ms"},
	{"spec.fingerprint_us", "us"},
	{"engine.jobs", "count"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.overhead_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.open_records", "count"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.put_ms_p50", "ms"},
	{"store.hit_ratio", "ratio"},
	{"render.json_us", "us"},
	{"render.csv_us", "us"},
	{"render.text_us", "us"},
	{"serve.self_ms_p50", "ms"},
	{"serve.simulated", "count"},
	{"serve.store_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"fabric.spawn_ms", "ms"},
	{"fabric.cell_overhead_ms", "ms"},
	{"fabric.dispatched", "count"},
	{"fabric.shards", "count"},
	{"fabric.requeues", "count"},
	{"fabric.fallbacks", "count"},
	{"engine.self_ms", "ms"},
	{"pipeline.self_ms", "ms"},
	{"workloads.self_ms", "ms"},
	{"spec.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"render.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"fabric.self_ms", "ms"},
	{"trace.wall_s_overhead", "s"},
	{"trace.hit_ms_p50_overhead", "ms"},
}

// idleLayers names, per workload, the layers it does not exercise. A traced
// run reports their metrics as 0; any other metric it misses makes the run
// incorrect.
var idleLayers = map[string][]string{
	"suite":  {"store", "serve", "fabric"},
	"serve":  {"fabric"},
	"fabric": {"store", "serve"},
}

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // scratch space for this run, removed at exit
	exe      string // directory holding perfbench, teasrvd and teaworker
}

// outcome is what a workload measured: operations attempted and failed, and
// the metrics of the requested kind.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
	problems          []string // reasons the run is not correct
	roots             int      // traced operations the layer self times are divided by
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setPct stores the p-th percentile of xs under name, or records why it
// cannot be reported.
func (o *outcome) setPct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	o.notef("%s: %d samples", name, len(xs))
	if !ok {
		o.problemf("%s: %d samples leave fewer than %d beyond p%g, or a failure sits at it", name, len(xs), minBeyond, p)
		return
	}
	o.metrics[name] = v
}

// setBatchPct stores under name the median over groups (batches, or
// windows of consecutive requests) of each group's p-th percentile, or
// records why it cannot be reported.
func (o *outcome) setBatchPct(name string, groups [][]float64, p float64) {
	var vs []float64
	n := 0
	for _, xs := range groups {
		v, ok := percentile(xs, p)
		if !ok {
			o.problemf("%s: a group's %d samples leave fewer than %d beyond p%g, or a failure sits at it", name, len(xs), minBeyond, p)
			return
		}
		vs = append(vs, v)
		n += len(xs)
	}
	o.notef("%s: %d samples, median of %d groups' own p%g", name, n, len(vs), p)
	if len(vs) == 0 {
		o.problemf("%s: no samples", name)
		return
	}
	o.metrics[name] = median(vs)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == suiteChildArg {
		os.Exit(suiteChild(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload: suite, serve or fabric")
	flag.Int64Var(&rc.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&rc.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if rc.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rc.trace = trace == 1
	runtime.GOMAXPROCS(pinnedProcs)
	os.Setenv("GOMAXPROCS", fmt.Sprint(pinnedProcs))
	os.Setenv("TEASIM_WORKERS", "1")

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc.exe = filepath.Dir(exe)
	base := os.Getenv("PERFBENCH_WORKDIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc.workdir, err = os.MkdirTemp(base, "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(rc.workdir)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	// An interrupted run stops its children the same way an expired one does.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := host()
	hj, _ := json.Marshal(h)
	fmt.Printf("# host %s\n", hj)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", rc.workload, rc.seed, rc.seconds, trace)

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var o *outcome
	switch rc.workload {
	case "suite":
		o, err = runSuite(ctx, rc, tr)
	case "serve":
		o, err = runServe(ctx, rc, tr)
	case "fabric":
		o, err = runFabric(ctx, rc, tr)
	default:
		err = fmt.Errorf("unknown workload %q (suite, serve, fabric)", rc.workload)
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run cut short: %w", context.Cause(ctx))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rc.trace {
		replayLayers(o)
		spanMetrics(o, tr)
		path := filepath.Join(base, "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	emit(o, rc)
	return 0
}

// spanMetrics prints the layer self-time table and reports each layer's
// self time per traced operation (a batch, or a request).
func spanMetrics(o *outcome, tr *tracer) {
	spans := tr.snapshot()
	rows := layerTable(spans)
	printLayerTable(os.Stdout, rows)
	for _, r := range rows {
		name := r.Name + ".self_ms"
		if o.roots > 0 && isMetric(perLayer, name) {
			o.metrics[name] = float64(r.SelfNS) / 1e6 / float64(o.roots)
		}
	}
}

func isMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// emit prints the human-readable lines and the final JSON result.
func emit(o *outcome, rc runConfig) {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		for _, layer := range idleLayers[rc.workload] {
			for _, d := range defs {
				if _, ok := o.metrics[d.name]; !ok && strings.HasPrefix(d.name, layer+".") {
					o.metrics[d.name] = 0
				}
			}
		}
	}
	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	errRatio := 0.0
	if o.attempted > 0 {
		errRatio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("# error_ratio %.6f ratio (%d failed of %d operations)\n", errRatio, o.failed, o.attempted)
	res := resultOut{Correct: len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.problemf("metric %s was not measured", d.name)
			continue
		}
		fmt.Printf("# %-34s %14.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(o.problems) > 0 {
		res.Correct = false
		fmt.Println("# NOT CORRECT:", strings.Join(o.problems, "; "))
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}
