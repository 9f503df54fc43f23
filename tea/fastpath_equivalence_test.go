package tea_test

import (
	"fmt"
	"reflect"
	"testing"

	"teasim/internal/pipeline"
	"teasim/tea"
)

// fastPathToggles enumerates the simulator-speed fast paths covered by the
// bit-identity contract, as functions that disable one path on a pipeline
// configuration. Every new bit-identical optimization lever must be added
// here.
var fastPathToggles = []struct {
	name    string
	disable func(*pipeline.Config)
}{
	{"block_cache", func(p *pipeline.Config) { p.NoBlockCache = true }},
	{"bitset_sched", func(p *pipeline.Config) { p.NoBitsetSched = true }},
	{"split_ready", func(p *pipeline.Config) { p.NoSplitReady = true }},
	{"hist_rewind", func(p *pipeline.Config) { p.NoHistRewind = true }},
}

// TestFastPathEquivalence is the fast-path bit-identity contract (DESIGN.md
// §12, §14): the decoded-block cache, the bitset scheduler, the split
// main/companion ready lists, and invertible folded-history recovery are all
// pure simulator-speed optimizations, so every mode must produce
// bit-identical results — every counter, rate, and the final cycle count —
// with the fast paths enabled (the default) and disabled (the reference
// paths). All six modes run on a representative workload pair, and the full
// workload suite runs in the two headline modes.
func TestFastPathEquivalence(t *testing.T) {
	budget := uint64(20_000)
	for _, mode := range tea.Modes() {
		for _, name := range []string{"mcf", "bfs"} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, name, tea.Config{
					Mode:            mode,
					MaxInstructions: budget,
				})
			})
		}
	}
	for _, name := range tea.Workloads() {
		for _, mode := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, name, tea.Config{
					Mode:            mode,
					MaxInstructions: budget,
				})
			})
		}
	}
}

// exactTierViolation reports why cfg is outside the bit-identity contract
// (empty when it is inside). The equivalence harness refuses such configs
// outright: a quick-tier run is self-consistent but not comparable to the
// exact tier, and silently asserting equivalence on one would prove nothing.
func exactTierViolation(cfg tea.Config) string {
	machine, err := cfg.ResolvedSpec()
	if err != nil {
		return fmt.Sprintf("spec does not resolve: %v", err)
	}
	if machine.Memory.Quick() {
		return `memory.model "quick" is outside the bit-identity contract (see DESIGN.md §14)`
	}
	return ""
}

func checkFastPathEquivalence(t *testing.T, name string, cfg tea.Config) {
	t.Helper()
	if v := exactTierViolation(cfg); v != "" {
		t.Fatalf("config not eligible for the equivalence harness: %s", v)
	}
	on, err := tea.Run(name, cfg)
	if err != nil {
		t.Fatalf("fast paths on: %v", err)
	}
	check := func(label string, c tea.Config) {
		got, err := tea.Run(name, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// DeepEqual, not field picking: any future Result field must hold
		// the invariant too.
		if !reflect.DeepEqual(on, got) {
			t.Errorf("results diverge (%s):\n on: %+v\ngot: %+v", label, on, got)
		}
	}
	// All reference paths at once.
	check("all fast paths off", tea.WithPipe(cfg, func(p *pipeline.Config) {
		for _, tog := range fastPathToggles {
			tog.disable(p)
		}
	}))
	// The paths are also independent: each fast path disabled alone must
	// match too.
	for _, tog := range fastPathToggles {
		check(fmt.Sprintf("only %s disabled", tog.name), tea.WithPipe(cfg, tog.disable))
	}
}

// TestQuickTierRejected pins the quick fidelity tier's exclusion from the
// bit-identity contract: the equivalence harness must refuse a quick-model
// spec rather than run it and silently compare incomparable tiers.
func TestQuickTierRejected(t *testing.T) {
	cfg := tea.Config{
		Mode:            tea.ModeBaseline,
		MaxInstructions: 1000,
		Set:             []string{"memory.model=quick"},
	}
	if v := exactTierViolation(cfg); v == "" {
		t.Fatal("quick-tier config was not rejected by the equivalence harness guard")
	}
	if v := exactTierViolation(tea.Config{Mode: tea.ModeBaseline}); v != "" {
		t.Fatalf("exact-tier config wrongly rejected: %s", v)
	}
}
