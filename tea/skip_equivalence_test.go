package tea_test

import (
	"fmt"
	"reflect"
	"testing"

	"teasim/internal/pipeline"
	"teasim/tea"
)

// TestIdleSkipEquivalence is the idle-cycle fast-forward contract (DESIGN.md
// §9): skipping is cycle-exact, so every workload must produce bit-identical
// results — every counter, rate, and the final cycle count — with skipping
// enabled and disabled. It runs the whole suite at a reduced budget in the
// headline modes, plus the Branch Runahead companion on a handful of
// workloads to cover the second Quiescent implementation.
func TestIdleSkipEquivalence(t *testing.T) {
	budget := uint64(20_000)
	modes := []tea.Mode{tea.ModeBaseline, tea.ModeTEA}
	for _, name := range tea.Workloads() {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkSkipEquivalence(t, name, tea.Config{
					Mode:            mode,
					MaxInstructions: budget,
				})
			})
		}
	}
	for _, name := range []string{"mcf", "omnetpp", "bfs"} {
		t.Run(fmt.Sprintf("%s/%s", name, tea.ModeBranchRunahead), func(t *testing.T) {
			t.Parallel()
			checkSkipEquivalence(t, name, tea.Config{
				Mode:            tea.ModeBranchRunahead,
				MaxInstructions: budget,
			})
		})
	}
}

func checkSkipEquivalence(t *testing.T, name string, cfg tea.Config) {
	t.Helper()
	on, err := tea.Run(name, cfg)
	if err != nil {
		t.Fatalf("skip on: %v", err)
	}
	off, err := tea.Run(name, tea.WithPipe(cfg, func(p *pipeline.Config) { p.NoIdleSkip = true }))
	if err != nil {
		t.Fatalf("skip off: %v", err)
	}
	// DeepEqual, not field picking: any future Result field must hold the
	// invariant too (Intervals slices compare element-wise).
	if !reflect.DeepEqual(on, off) {
		t.Errorf("results diverge with idle skipping:\n on: %+v\noff: %+v", on, off)
	}
}
