// Package tea is the public API of the TEA branch-precomputation
// reproduction: it runs the paper's benchmark suite on the baseline
// out-of-order core with the TEA thread, the Branch Runahead comparison
// baseline, or no precomputation at all, and reports the metrics behind
// every table and figure in the paper's evaluation (§V).
//
// Quick start:
//
//	res, err := tea.Run("bfs", tea.Config{Mode: tea.ModeTEA})
//	fmt.Printf("IPC %.2f, coverage %.0f%%\n", res.IPC, 100*res.Coverage)
//
// Compare against the baseline core:
//
//	base, _ := tea.Run("bfs", tea.Config{Mode: tea.ModeBaseline})
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles)/float64(res.Cycles))
//
// Every run simulates one declarative machine point (tea/spec): the Mode
// names a registered preset, Config.Spec substitutes a custom spec, and
// Config.Set patches individual fields ("companion.tea.fill_buf_size=1024").
// See Config.ResolvedSpec for the resolution order.
package tea

import (
	"context"
	"fmt"
	"io"
	"math"

	"teasim/internal/companion"
	"teasim/internal/pipeline"
	"teasim/internal/telemetry"
	"teasim/internal/workloads"
	"teasim/tea/spec"
)

// Config controls one simulation run.
type Config struct {
	// Mode names the machine preset to simulate (ignored when Spec is set).
	Mode Mode

	// Spec, when non-nil, replaces the Mode's preset with a custom machine
	// point (tea/spec). The spec is cloned before resolution, so callers may
	// reuse one spec across runs.
	Spec *spec.MachineSpec
	// Set holds dotted-path spec patches ("section.field=value", see
	// spec.MachineSpec.Set) applied after the ablation and structure-size
	// overrides below, in order.
	Set []string

	// MaxInstructions bounds the simulated region (0 = run to completion).
	// The experiment harness default is 1M instructions per workload.
	MaxInstructions uint64
	// Scale selects the workload input size (0 = tiny/test, 1 = default).
	Scale int
	// CoSim verifies every retired instruction against the golden
	// functional model (slower; on by default in tests).
	CoSim bool
	// DisableIdleSkip turns off the pipeline's idle-cycle fast-forward
	// (pipeline.Config.NoIdleSkip), ticking every cycle individually.
	// Results are bit-identical either way — skipping is cycle-exact — so
	// this exists for debugging and the skip equivalence test.
	DisableIdleSkip bool
	// DisableBlockCache turns off the pipeline's decoded-block uop cache
	// (pipeline.Config.NoBlockCache): the BP walks instructions one at a
	// time and fetch re-decodes every uop. Results are bit-identical either
	// way (the fast-path equivalence test pins this); for debugging and
	// that test.
	DisableBlockCache bool
	// DisableBitsetSched turns off the pipeline's bitmap scheduler
	// (pipeline.Config.NoBitsetSched), falling back to the pointer/heap
	// reference scheduler. Bit-identical either way; for debugging and the
	// fast-path equivalence test.
	DisableBitsetSched bool
	// DisableSplitReady turns off the bitset scheduler's split main/companion
	// ready lists (pipeline.Config.NoSplitReady), filtering a single shared
	// ready set at select instead. Bit-identical either way; for debugging
	// and the fast-path equivalence test. No effect when the bitset scheduler
	// is itself disabled.
	DisableSplitReady bool
	// DisableHistRewind turns off invertible folded-history recovery
	// (pipeline.Config.NoHistRewind), falling back to per-branch history
	// checkpoint copies. Bit-identical either way (pinned by
	// bpred.TestHistoryRewindEquivalence and the fast-path equivalence test);
	// for debugging and those tests.
	DisableHistRewind bool

	// Fig. 10 ablation switches — spec patches on the companion's TEA
	// section (error on a TEA-less machine).
	OnlyLoops         bool // loop-confined chains ("only loops")
	NoMasks           bool // no mask combining across control flows
	NoMem             bool // no memory dependencies in the walk
	DisableEarlyFlush bool // precompute but never flush (§V-B prefetch-only)

	// Structure-size overrides for the paper's sensitivity studies
	// (0 = keep the spec's value) — shorthand spec patches. See §IV-B (H2P
	// decrement period, Block Cache capacity), §IV-C (Fill Buffer size), and
	// §III-B (fetch-queue-bounded run-ahead distance).
	BlockCacheEntries int    // Block Cache data entries (default 512)
	FillBufferSize    int    // Fill Buffer uops (default 512)
	H2PDecayPeriod    uint64 // instructions between H2P decrements (default 50k)
	MaxLeadBlocks     int    // shadow fetch queue depth (default 2)
	FetchQueueSize    int    // main fetch queue entries (default 128)

	// Observability (see DESIGN.md "Telemetry"). These fields are purely
	// observational: a run with telemetry attached retires the same
	// instructions in the same cycles as one without. Runs with any of them
	// set are never memoized by an Engine (see Config.Observational).
	//
	// Intervals samples a per-interval time series (IPC, MPKI, flush rate,
	// TEA coverage/accuracy, Block Cache hit rate, Fill Buffer occupancy)
	// into Result.Intervals every IntervalPeriod retired instructions
	// (0 = every 10k). TraceTo, when non-nil, streams JSONL trace events —
	// retirements and flushes inside the [TraceStart, TraceEnd] cycle
	// window (TraceEnd 0 = unbounded) — plus the interval samples.
	Intervals      bool
	IntervalPeriod uint64
	TraceTo        io.Writer
	TraceStart     uint64
	TraceEnd       uint64

	// Paranoia enables per-cycle invariant checking inside the pipeline and
	// the TEA companion structures (DESIGN.md "Failure handling"): ROB age
	// ordering, physical-register conservation, scheduler/scoreboard
	// consistency, completion accounting, and Block Cache mask monotonicity.
	// A paranoid run produces bit-identical results — the checker only reads
	// — but is much slower and panics at the first violated invariant, so it
	// exists for CI and debugging. Paranoid runs are never memoized: the
	// caller wants the checking, not just the numbers.
	Paranoia bool
	// Heartbeat, when non-nil, receives a progress beat every runQuantum
	// simulated cycles (and at every telemetry interval sample), letting a
	// watchdog on another goroutine distinguish a slow run from a wedged one.
	// The engine's hang watchdog (JobPolicy.HangTimeout) installs its own;
	// set this only when driving RunContext directly.
	Heartbeat *telemetry.Heartbeat
}

// Observational reports whether the run carries observation-only
// attachments (telemetry intervals or a trace stream). Observational runs
// produce bit-identical simulation results but are never memoized, so the
// observation always happens.
func (c Config) Observational() bool {
	return c.Intervals || c.IntervalPeriod != 0 || c.TraceTo != nil ||
		c.TraceStart != 0 || c.TraceEnd != 0
}

// Memoizable reports whether an Engine may serve this run from its result
// cache: the run must not be observational (the caller wants the
// observation, not just the numbers), must not co-simulate or check
// invariants (the caller wants the checking), and must not disable a
// bit-identical fast path (the point of such a run is exercising the
// reference path). Memoizable runs are keyed by (workload, mode, spec
// fingerprint, budget, scale) — see Engine.
func (c Config) Memoizable() bool {
	return !c.Observational() && !c.CoSim && !c.DisableIdleSkip &&
		!c.DisableBlockCache && !c.DisableBitsetSched &&
		!c.DisableSplitReady && !c.DisableHistRewind && !c.Paranoia
}

// Result reports one run's performance and precomputation metrics. It
// marshals to JSON with snake_case keys (and the Mode as its report name),
// so results can be piped straight into plotting scripts.
type Result struct {
	Workload string `json:"workload"`
	Mode     Mode   `json:"mode"`
	// SpecHash is the resolved machine spec's fingerprint (hex), tying the
	// result to the exact machine point that produced it.
	SpecHash string `json:"spec_hash,omitempty"`
	// Fidelity marks rows produced outside the exact tier ("quick" for the
	// statistical memory model; empty for exact runs, so existing goldens
	// are unchanged). Quick rows must never be mixed into paper-figure
	// tables — see EXPERIMENTS.md.
	Fidelity string `json:"fidelity,omitempty"`

	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	// Branch behaviour (Fig. 6): mispredictions counted against the
	// original branch-predictor decision.
	MPKI            float64 `json:"mpki"`
	CondMispredicts uint64  `json:"cond_mispredicts"`
	IndMispredicts  uint64  `json:"ind_mispredicts"`

	// Precomputation quality (Figs. 7 and 10). Coverage buckets partition
	// the retired mispredictions.
	Accuracy       float64 `json:"accuracy"` // correct precomputations / precomputations
	Coverage       float64 `json:"coverage"` // covered / all retired mispredictions
	Covered        uint64  `json:"covered"`
	Late           uint64  `json:"late"`
	Incorrect      uint64  `json:"incorrect"`
	Uncovered      uint64  `json:"uncovered"`
	AvgCyclesSaved float64 `json:"avg_cycles_saved"` // per covered misprediction (Fig. 10c)
	EarlyFlushes   uint64  `json:"early_flushes"`

	// Footprint (Table III): extra dynamic uops fetched for precomputation,
	// as a percentage of main-thread fetched uops.
	UopOverheadPct float64 `json:"uop_overhead_pct"`

	// Intervals holds the per-interval time series when Config.Intervals
	// was set (nil otherwise).
	Intervals []IntervalSample `json:"intervals,omitempty"`

	// Err annotates a cell that failed under quarantine semantics
	// (Engine.MapPartial / teaexp -partial): the first line of the job's
	// error, with every metric zero. Empty for successful runs, so existing
	// goldens and JSON consumers are unaffected.
	Err string `json:"error,omitempty"`
}

// IntervalSample is one point of a run's time series, sampled every
// Config.IntervalPeriod retired instructions. Rate fields are computed over
// the interval (deltas), not cumulatively, so plotting them directly shows
// the per-phase behavior that end-of-run aggregates hide.
type IntervalSample struct {
	Index   int    `json:"index"`
	Cycle   uint64 `json:"cycle"`   // cycle count at the sample point
	Retired uint64 `json:"retired"` // cumulative retired instructions

	Cycles       uint64  `json:"cycles"`       // cycles in this interval
	Instructions uint64  `json:"instructions"` // instructions in this interval
	IPC          float64 `json:"ipc"`
	MPKI         float64 `json:"mpki"`
	Flushes      uint64  `json:"flushes"`
	EarlyFlushes uint64  `json:"early_flushes"`

	// Companion (TEA / Branch Runahead) metrics; zero without one.
	Coverage          float64 `json:"coverage"`
	Accuracy          float64 `json:"accuracy"`
	BlockCacheHitRate float64 `json:"block_cache_hit_rate"`
	FillBufOccupancy  int     `json:"fill_buf_occupancy"`

	// Metrics carries every registered internal metric at the sample point
	// (cumulative values; see DESIGN.md for the name catalogue).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Workloads returns the names of the 16-benchmark suite in report order.
func Workloads() []string {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return names
}

// SimpleFlow reports whether the workload is in the paper's "simple control
// flow" class (§V-C: the GAP kernels and xz).
func SimpleFlow(name string) bool {
	w, ok := workloads.ByName(name)
	return ok && w.Flow == workloads.Simple
}

// Run simulates one workload under the given configuration.
func Run(workload string, cfg Config) (Result, error) {
	return RunContext(context.Background(), workload, cfg)
}

// runQuantum is the cycle distance between cancellation checks in
// RunContext: small enough that cancellation lands within a few hundred
// microseconds of wall time, large enough to keep the check out of the
// per-cycle loop's profile.
const runQuantum = 50_000

// RunContext is Run with cooperative cancellation: the simulation checks
// ctx every runQuantum simulated cycles and returns ctx.Err() promptly once
// the context is done. A cancelled context returns before any simulation
// work. Results from cancelled runs are zero; cancellation is not an error
// of the simulation itself.
func RunContext(ctx context.Context, workload string, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		return Result{}, fmt.Errorf("tea: unknown workload %q (see tea.Workloads)", workload)
	}
	machine, err := cfg.ResolvedSpec()
	if err != nil {
		return Result{}, err
	}
	mode := effectiveMode(cfg, &machine)
	prog := w.Build(cfg.Scale)

	pcfg := pipelineConfig(&machine)
	pcfg.CoSim = cfg.CoSim
	pcfg.NoIdleSkip = cfg.DisableIdleSkip
	pcfg.NoBlockCache = cfg.DisableBlockCache
	pcfg.NoBitsetSched = cfg.DisableBitsetSched
	pcfg.NoSplitReady = cfg.DisableSplitReady
	pcfg.NoHistRewind = cfg.DisableHistRewind
	pcfg.MaxInstructions = cfg.MaxInstructions
	pcfg.MaxCycles = 400_000_000
	pcfg.Paranoia = cfg.Paranoia
	pcfg.Heartbeat = cfg.Heartbeat

	// Telemetry: an interval-collecting ring and/or a JSONL event stream.
	var ring *telemetry.RingSink
	if cfg.Intervals || cfg.TraceTo != nil {
		var sinks []telemetry.Sink
		if cfg.Intervals {
			ring = telemetry.NewRing(0) // intervals only, no event retention
			sinks = append(sinks, ring)
		}
		if cfg.TraceTo != nil {
			sinks = append(sinks, telemetry.NewJSONL(cfg.TraceTo))
		}
		tcfg := telemetry.Config{
			Sink:           telemetry.Multi(sinks...),
			IntervalPeriod: cfg.IntervalPeriod,
			TraceStart:     cfg.TraceStart,
			TraceEnd:       cfg.TraceEnd,
			Heartbeat:      cfg.Heartbeat,
		}
		if cfg.TraceTo == nil {
			// Intervals without a trace stream: push the trace window past
			// any reachable cycle so no per-retire events are built.
			tcfg.TraceStart = math.MaxUint64
		}
		pcfg.Telemetry = telemetry.NewCollector(tcfg)
	}

	c := pipeline.New(pcfg, prog)

	// Build whatever companion the spec names through the factory registry
	// (tea/companions.go links every known companion package).
	inst, err := companion.New(&machine, c, companion.Options{Paranoia: cfg.Paranoia})
	if err != nil {
		return Result{}, fmt.Errorf("tea: %s/%s: %w", workload, mode, err)
	}

	var runErr error
	if ctx.Done() == nil && cfg.Heartbeat == nil {
		runErr = c.Run()
	} else {
		runErr = c.RunChecked(runQuantum, func() error { return ctx.Err() })
	}
	if pcfg.Telemetry != nil {
		if cerr := pcfg.Telemetry.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("telemetry sink: %w", cerr)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{}, fmt.Errorf("tea: %s/%s: %w", workload, mode, runErr)
	}

	res := Result{
		Workload:        workload,
		Mode:            mode,
		SpecHash:        machine.FingerprintString(),
		Fidelity:        machine.Memory.Model,
		Cycles:          c.Stats.Cycles,
		Instructions:    c.Stats.Retired,
		IPC:             c.Stats.IPC(),
		MPKI:            c.Stats.MPKI(),
		CondMispredicts: c.Stats.CondMispredicts,
		IndMispredicts:  c.Stats.IndMispredicts,
		Accuracy:        1,
	}
	if inst != nil {
		m := inst.Metrics()
		res.Accuracy = m.Accuracy
		res.Coverage = m.Coverage
		res.Covered = m.Covered
		res.Late = m.Late
		res.Incorrect = m.Incorrect
		res.Uncovered = m.Uncovered
		res.AvgCyclesSaved = m.AvgCyclesSaved
		res.EarlyFlushes = m.EarlyFlushes
		if c.Stats.FetchedUops > 0 {
			res.UopOverheadPct = 100 * float64(m.ExtraUops) / float64(c.Stats.FetchedUops)
		}
	}
	if ring != nil {
		ivs := ring.Intervals()
		res.Intervals = make([]IntervalSample, len(ivs))
		for i, iv := range ivs {
			s := IntervalSample{
				Index:             iv.Index,
				Cycle:             iv.Cycle,
				Retired:           iv.Retired,
				Cycles:            iv.Cycles,
				Instructions:      iv.Instructions,
				IPC:               iv.IPC,
				MPKI:              iv.MPKI,
				Flushes:           iv.Flushes,
				EarlyFlushes:      iv.EarlyFlushes,
				Coverage:          iv.Coverage,
				Accuracy:          iv.Accuracy,
				BlockCacheHitRate: iv.BlockCacheHitRate,
				FillBufOccupancy:  iv.FillBufOccupancy,
			}
			if len(iv.Metrics) > 0 {
				s.Metrics = make(map[string]float64, len(iv.Metrics))
				for _, m := range iv.Metrics {
					s.Metrics[m.Name] = m.Value
				}
			}
			res.Intervals[i] = s
		}
	}
	return res, nil
}
