package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"teasim/internal/workloads"
	"teasim/tea"
	"teasim/tea/store"
)

// cellSample is one simulated cell as the benchmark's RunFunc saw it.
type cellSample struct {
	Workload string  `json:"w"`
	Mode     string  `json:"m"`
	Budget   uint64  `json:"n"`
	NS       int64   `json:"ns"` // the wrapped RunFunc call
	Instr    uint64  `json:"instr"`
	Cycles   uint64  `json:"cycles"`
	Err      bool    `json:"err,omitempty"`
	BuildNS  int64   `json:"build_ns,omitempty"` // traced: a separate workload Build
	FpNS     int64   `json:"fp_ns,omitempty"`    // traced: a separate SpecFingerprint
	Allocs   uint64  `json:"allocs,omitempty"`   // traced: heap objects allocated by the cell
	UopPct   float64 `json:"uop_pct,omitempty"`
	Flushes  uint64  `json:"flushes,omitempty"`
	Accuracy float64 `json:"acc,omitempty"`
}

// cellRunner is the benchmark's tea.RunFunc: it times each simulated cell
// and, when traced, records spans and the separately timed workload Build
// and spec fingerprint of the cell. With a store set, every result is also
// written there the way the serve daemon writes it.
type cellRunner struct {
	tr     *tracer
	next   tea.RunFunc // nil = tea.RunContext
	remote bool        // next runs elsewhere: no local Build or allocation figures
	store  *store.Store

	mu    sync.Mutex
	cells []cellSample
	putNS []float64
}

func (c *cellRunner) run(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
	next := c.next
	if next == nil {
		next = tea.RunContext
	}
	name := "pipeline"
	if c.remote {
		name = "fabric"
	}
	cctx, end := c.tr.begin(ctx, name)
	s := cellSample{Workload: workload, Mode: cfg.Mode.String(), Budget: cfg.MaxInstructions}
	var allocs0 uint64
	if c.tr != nil && !c.remote {
		if w, ok := workloads.ByName(workload); ok {
			_, e := c.tr.begin(cctx, "workloads")
			t := time.Now()
			w.Build(cfg.Scale)
			s.BuildNS = int64(time.Since(t))
			e()
		}
		_, e := c.tr.begin(cctx, "spec")
		t := time.Now()
		_, _ = cfg.SpecFingerprint() // timed only; RunContext reports a bad spec
		s.FpNS = int64(time.Since(t))
		e()
		allocs0 = heapAllocs()
	}
	t := time.Now()
	res, err := next(cctx, workload, cfg)
	s.NS = int64(time.Since(t))
	if c.tr != nil && !c.remote {
		s.Allocs = heapAllocs() - allocs0
	}
	end()
	s.Instr, s.Cycles, s.Err = res.Instructions, res.Cycles, err != nil
	s.UopPct, s.Flushes, s.Accuracy = res.UopOverheadPct, res.EarlyFlushes, res.Accuracy
	if err == nil && c.store != nil {
		if err = c.put(ctx, workload, cfg, res); err != nil {
			s.Err = true
		}
	}
	c.mu.Lock()
	c.cells = append(c.cells, s)
	c.mu.Unlock()
	return res, err
}

// put stores one result under the daemon's key for the cell.
func (c *cellRunner) put(ctx context.Context, workload string, cfg tea.Config, res tea.Result) error {
	fp, err := cfg.SpecFingerprint()
	if err != nil {
		return err
	}
	_, end := c.tr.begin(ctx, "store")
	t := time.Now()
	err = c.store.Put(tea.JournalRecord{Workload: workload, Mode: cfg.Mode,
		Spec: fmt.Sprintf("%016x", fp), MaxInstr: cfg.MaxInstructions, Scale: cfg.Scale, Result: res})
	d := time.Since(t)
	end()
	c.mu.Lock()
	c.putNS = append(c.putNS, float64(d))
	c.mu.Unlock()
	return err
}

// cellMS is a cell's latency in ms, +Inf when it failed, so a failed cell
// misses every latency limit instead of dropping out of the sample.
func cellMS(c cellSample) float64 {
	if c.Err {
		return math.Inf(1)
	}
	return float64(c.NS) / 1e6
}

func (c *cellRunner) samples() []cellSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cellSample(nil), c.cells...)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative count of heap-allocated objects.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// render writes rep in format f.
func render(rep *tea.Report, f tea.Format) ([]byte, error) {
	var buf bytes.Buffer
	err := rep.Write(&buf, f)
	return buf.Bytes(), err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var formats = []tea.Format{tea.FormatJSON, tea.FormatCSV, tea.FormatText}

// reissue runs one report request on a warm engine, whose memo serves every
// cell, and renders it; it returns the latency and whether the bytes are
// the expected ones.
func reissue(ctx context.Context, tr *tracer, name string, opts tea.ExpOptions, f tea.Format, want []byte) (time.Duration, bool) {
	hctx, end := tr.begin(ctx, "hit")
	defer end()
	t := time.Now()
	ectx, endE := tr.begin(hctx, "engine")
	rep, err := tea.RunExperiment(ectx, name, opts)
	endE()
	if err != nil {
		return time.Since(t), false
	}
	_, endR := tr.begin(hctx, "render")
	got, err := render(rep, f)
	endR()
	return time.Since(t), err == nil && bytes.Equal(got, want)
}

// cellLayers turns locally simulated cells into the pipeline, companion and
// workloads metrics: pipeline figures from baseline cells, companion cost as
// a cell's time over the same kernel's baseline cell, per kilo-instruction.
// Times sum over every traced cell; counts over distinct cells, so they do
// not grow with the run's length.
func cellLayers(o *outcome, cells []cellSample) {
	type key struct {
		workload string
		budget   uint64
	}
	base := map[key]cellSample{}
	tea1 := map[key]cellSample{}
	var pipeNS, pipeInstr, pipeCycles, pipeAllocs float64
	var builds, fps []float64
	for _, c := range cells {
		if c.Err || c.BuildNS == 0 {
			continue // untraced or failed
		}
		builds = append(builds, float64(c.BuildNS))
		fps = append(fps, float64(c.FpNS))
		switch c.Mode {
		case tea.ModeBaseline.String():
			base[key{c.Workload, c.Budget}] = c
			pipeNS += float64(c.NS - c.BuildNS)
			pipeInstr += float64(c.Instr)
			pipeCycles += float64(c.Cycles)
			pipeAllocs += float64(c.Allocs)
		case tea.ModeTEA.String():
			tea1[key{c.Workload, c.Budget}] = c
		}
	}
	if pipeInstr > 0 {
		o.metrics["pipeline.us_per_kinstr"] = pipeNS / pipeInstr
		o.metrics["pipeline.ns_per_cycle"] = pipeNS / pipeCycles
		o.metrics["pipeline.allocs_per_kinstr"] = pipeAllocs / (pipeInstr / 1e3)
		var instr, cycles float64
		for _, c := range base {
			instr += float64(c.Instr)
			cycles += float64(c.Cycles)
		}
		o.metrics["pipeline.instructions"] = instr
		o.metrics["pipeline.cycles"] = cycles
	}
	if len(builds) > 0 {
		o.metrics["workloads.build_ms"] = mean(builds) / 1e6
		o.metrics["spec.fingerprint_us"] = mean(fps) / 1e3
	}
	type acc struct{ extraNS, instr float64 }
	comp := map[string]*acc{"tea": {}, "runahead": {}}
	for _, c := range cells {
		b, ok := base[key{c.Workload, c.Budget}]
		if c.Err || c.BuildNS == 0 || !ok {
			continue
		}
		k := ""
		switch c.Mode {
		case tea.ModeTEA.String():
			k = "tea"
		case tea.ModeBranchRunahead.String():
			k = "runahead"
		default:
			continue
		}
		comp[k].extraNS += float64(c.NS-c.BuildNS) - float64(b.NS-b.BuildNS)
		comp[k].instr += float64(c.Instr)
	}
	for k, a := range comp {
		if a.instr > 0 {
			o.metrics["companion."+k+".us_per_kinstr"] = a.extraNS / a.instr
		}
	}
	var uop, flushes, accuracy []float64
	for _, c := range tea1 {
		uop = append(uop, c.UopPct)
		flushes = append(flushes, float64(c.Flushes))
		accuracy = append(accuracy, c.Accuracy)
	}
	if len(uop) > 0 {
		o.metrics["companion.tea.extra_uop_pct"] = mean(uop)
		o.metrics["companion.tea.early_flushes"] = sum(flushes)
		o.metrics["companion.tea.accuracy"] = mean(accuracy)
	}
}
