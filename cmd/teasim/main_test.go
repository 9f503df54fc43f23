package main

import (
	"testing"

	"teasim/tea"
)

// TestSpeedupBaselineSharesFidelityTier asserts -speedup's baseline runs on
// the same memory model as the run it is compared against: with -quick both
// cells are quick, without it both are exact.
func TestSpeedupBaselineSharesFidelityTier(t *testing.T) {
	for _, quick := range []bool{false, true} {
		cfg := tea.Config{Mode: tea.ModeTEA, MaxInstructions: 20_000, Scale: 1}
		if quick {
			cfg.Set = []string{quickPatch}
		}
		jobs := buildJobs("mcf", cfg, true, quick)
		if len(jobs) != 2 {
			t.Fatalf("quick=%v: %d jobs, want the run and its baseline", quick, len(jobs))
		}
		var models [2]string
		for i, j := range jobs {
			s, err := j.Cfg.ResolvedSpec()
			if err != nil {
				t.Fatal(err)
			}
			models[i] = s.Memory.Model
		}
		if models[0] != models[1] {
			t.Errorf("quick=%v: run memory.model %q, baseline %q", quick, models[0], models[1])
		}
		if base := jobs[1].Cfg; base.Mode != tea.ModeBaseline ||
			base.MaxInstructions != cfg.MaxInstructions || base.Scale != cfg.Scale {
			t.Errorf("quick=%v: baseline job %+v does not match the run's budget", quick, base)
		}
	}
	if jobs := buildJobs("mcf", tea.Config{Mode: tea.ModeTEA}, false, false); len(jobs) != 1 {
		t.Errorf("without -speedup: %d jobs, want 1", len(jobs))
	}
}
