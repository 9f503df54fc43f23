package tea

import (
	"context"
	"testing"

	"teasim/tea/spec"
)

func TestSensitivitySweep(t *testing.T) {
	rep, err := sensitivity(context.Background(), SensLead, []int{1, 4},
		ExpOptions{MaxInstructions: 60_000, Scale: 1, Workloads: []string{"cc"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows().([]SensRow)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup %v", r.Speedup)
		}
	}
}

func TestSensitivityUnknownParam(t *testing.T) {
	_, err := sensitivity(context.Background(), SensParam("bogus"), []int{1},
		ExpOptions{MaxInstructions: 10_000, Workloads: []string{"cc"}})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestSensitivityPatchEquivalence asserts the patch-based sensitivity sweep
// reproduces the Fill-Buffer and Block-Cache curves of hand-edited TEA specs
// exactly, and that the engine's fingerprint memo simulates each workload's
// baseline exactly once across both sweeps.
func TestSensitivityPatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation sweep; skipped in -short mode")
	}
	const budget = 20_000
	workloads := []string{"bfs", "mcf"}
	engine := NewEngine(4)
	opts := ExpOptions{MaxInstructions: budget, Scale: 1, Workloads: workloads, Engine: engine}

	sweeps := []struct {
		param  SensParam
		values []int
		edit   func(*spec.TEA, int)
	}{
		{SensFillBuffer, []int{256, 512, 1024}, func(t *spec.TEA, v int) { t.FillBufSize = v }},
		{SensBlockCache, []int{256, 512, 1024}, (*spec.TEA).SetBlockCacheEntries},
	}
	for _, sw := range sweeps {
		rep, err := sensitivity(context.Background(), sw.param, sw.values, opts)
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.param, err)
		}
		rows := rep.Rows().([]SensRow)
		i := 0
		for _, name := range workloads {
			base, err := Run(name, Config{Mode: ModeBaseline, MaxInstructions: budget, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sw.values {
				s, err := ModeTEA.Preset()
				if err != nil {
					t.Fatal(err)
				}
				sw.edit(s.Companion.TEA, v)
				res, err := Run(name, Config{Spec: &s, MaxInstructions: budget, Scale: 1})
				if err != nil {
					t.Fatal(err)
				}
				row := rows[i]
				i++
				wantSpeedup := float64(base.Cycles) / float64(res.Cycles)
				if row.Workload != name || row.Value != v ||
					row.Speedup != wantSpeedup || row.Coverage != res.Coverage || row.Accuracy != res.Accuracy {
					t.Errorf("%s %s@%d: patch row %+v diverges from the hand-edited spec's run (speedup %v, cov %v, acc %v)",
						sw.param, name, v, row, wantSpeedup, res.Coverage, res.Accuracy)
				}
			}
		}
	}

	// Both sweeps shared one engine: per workload, the baseline must have
	// simulated once, and the default machine point — fill buffer 512 and
	// block cache 512 both patch fields back to their preset values — once.
	stats := engine.MemoStats()
	wantEntries := len(workloads) * (1 /*baseline*/ + 5 /*distinct TEA points*/)
	if stats.Entries != wantEntries {
		t.Errorf("memo holds %d entries, want %d (baseline and default TEA cells shared across sweeps)",
			stats.Entries, wantEntries)
	}
	// 2 sweeps × (1 baseline + 3 points) × 2 workloads = 16 jobs over 12
	// distinct machine points: 4 hits.
	if wantHits := 2 * len(workloads); stats.Hits != wantHits {
		t.Errorf("memo served %d hits, want %d", stats.Hits, wantHits)
	}
}

// TestSensParamPatch pins the Block Cache sweep's conversion from entries
// to the spec's geometry: whole power-of-two sets at the preset's 8 ways.
func TestSensParamPatch(t *testing.T) {
	for value, want := range map[int]string{
		1000: "companion.tea.block_cache_sets=128",
		512:  "companion.tea.block_cache_sets=64",
		1:    "companion.tea.block_cache_sets=1",
	} {
		got, err := SensBlockCache.Patch(value)
		if err != nil || got != want {
			t.Errorf("SensBlockCache.Patch(%d) = %q, %v; want %q", value, got, err, want)
		}
	}
}
