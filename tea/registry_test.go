package tea

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stubRun is a deterministic fake simulation for registry dispatch tests.
func stubRun(ctx context.Context, workload string, cfg Config) (Result, error) {
	cyc := uint64(2000 + 7*len(workload))
	if cfg.Mode != ModeBaseline {
		cyc -= 150
	}
	return Result{
		Workload:     workload,
		Mode:         cfg.Mode,
		Cycles:       cyc,
		Instructions: 9000,
		IPC:          9000 / float64(cyc),
		Coverage:     0.4,
		Accuracy:     0.85,
	}, nil
}

func TestExperimentCatalog(t *testing.T) {
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("empty experiment catalog")
	}
	// Paper order: the figures lead the catalog.
	for i, want := range []string{"fig5", "fig6", "fig7", "fig8", "fig9"} {
		if exps[i].Name != want {
			t.Errorf("catalog[%d] = %q, want %q", i, exps[i].Name, want)
		}
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Title == "" || e.Description == "" {
			t.Errorf("experiment %q lacks title or description", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig9big", "wide16", "fig10", "table3", "prefetchonly", "custom", "sens-blockcache"} {
		if !seen[want] {
			t.Errorf("catalog missing %q", want)
		}
	}

	names := ExperimentNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("ExperimentNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestLookupExperiment(t *testing.T) {
	if _, ok := LookupExperiment("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := LookupExperiment("fig99"); ok {
		t.Error("fig99 unexpectedly found")
	}
	if _, err := RunExperiment(context.Background(), "fig99", ExpOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("RunExperiment(fig99) err = %v, want unknown experiment", err)
	}
}

func TestRegisterExperimentRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterExperiment did not panic", name)
			}
		}()
		RegisterExperiment(e)
	}
	run := func(ctx context.Context, o ExpOptions) (*Report, error) { return nil, nil }
	mustPanic("duplicate", Experiment{Name: "fig5", Title: "t", Description: "d", Run: run})
	mustPanic("no name", Experiment{Run: run})
	mustPanic("no runner", Experiment{Name: "unique-but-runnerless"})
}

// TestDefaultExpOptions pins the zero value's defaults: 1M instructions per
// cell, paper-like scale, and the full suite.
func TestDefaultExpOptions(t *testing.T) {
	o := ExpOptions{}.fill()
	if o.MaxInstructions != 1_000_000 || o.Scale != 1 || len(o.Workloads) != 17 || o.Engine == nil {
		t.Fatalf("bad defaults: %+v", o)
	}
}

// TestReportErrorRows pins the quarantine accounting the -partial exit code
// and the daemon's X-Tea-Error-Rows header rely on.
func TestReportErrorRows(t *testing.T) {
	boom := func(ctx context.Context, workload string, cfg Config) (Result, error) {
		if workload == "mcf" && cfg.Mode != ModeBaseline {
			panic("injected failure")
		}
		return stubRun(ctx, workload, cfg)
	}
	rep, err := RunExperiment(context.Background(), "fig5", ExpOptions{
		Workloads:       []string{"bfs", "mcf"},
		MaxInstructions: 10_000,
		Partial:         true,
		Engine:          NewEngine(1, WithRunFunc(boom)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ErrorRows(); got != 1 {
		t.Errorf("ErrorRows = %d, want 1", got)
	}

	clean, err := RunExperiment(context.Background(), "fig5", ExpOptions{
		Workloads:       []string{"bfs"},
		MaxInstructions: 10_000,
		Engine:          NewEngine(1, WithRunFunc(stubRun)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.ErrorRows(); got != 0 {
		t.Errorf("clean ErrorRows = %d, want 0", got)
	}
}

// TestRegistryGoldens pins every registered experiment's text, JSON and CSV
// rendering through the public path (RunExperiment + Report.Write), on a
// deterministic stub simulation over two workloads. Regenerate with
// `go test ./tea -run TestRegistryGoldens -update`.
func TestRegistryGoldens(t *testing.T) {
	formats := []struct {
		ext string
		f   Format
	}{
		{"txt", FormatText},
		{"json", FormatJSON},
		{"csv", FormatCSV},
	}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			rep, err := RunExperiment(context.Background(), e.Name, ExpOptions{
				Workloads:       []string{"bfs", "mcf"},
				MaxInstructions: 10_000,
				Engine:          NewEngine(1, WithRunFunc(stubRun)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ff := range formats {
				var buf bytes.Buffer
				if err := rep.Write(&buf, ff.f); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "registry", e.Name+"."+ff.ext)
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./tea -run TestRegistryGoldens -update` to create)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s rendering changed; got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
				}
			}
		})
	}
}

// TestRegistryCells pins the machine identity of every cell every registered
// experiment dispatches. The renderings above cannot see a wrong machine
// point (stubRun ignores the spec), so a recording RunFunc logs each distinct
// simulated cell as "experiment workload mode fingerprint budget scale"; the
// sorted lines must match testdata/registry/cells.txt. Regenerate with
// `go test ./tea -run TestRegistryCells -update`.
func TestRegistryCells(t *testing.T) {
	var (
		mu    sync.Mutex
		cells = map[string]bool{}
	)
	for _, e := range Experiments() {
		record := func(ctx context.Context, workload string, cfg Config) (Result, error) {
			fp, err := cfg.SpecFingerprint()
			if err != nil {
				return Result{}, err
			}
			mu.Lock()
			cells[fmt.Sprintf("%s %s %s %016x %d %d", e.Name, workload, cfg.Mode, fp, cfg.MaxInstructions, cfg.Scale)] = true
			mu.Unlock()
			return stubRun(ctx, workload, cfg)
		}
		if _, err := RunExperiment(context.Background(), e.Name, ExpOptions{
			Workloads:       []string{"bfs", "mcf"},
			MaxInstructions: 10_000,
			Engine:          NewEngine(1, WithRunFunc(record)),
		}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	lines := make([]string, 0, len(cells))
	for l := range cells {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	path := filepath.Join("testdata", "registry", "cells.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./tea -run TestRegistryCells -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed; got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestQuickReachesEveryCell asserts ExpOptions.Quick puts every cell of
// every registered experiment on the quick tier, ablated and swept cells
// included: a speedup or sweep mixing a quick and an exact cell compares
// two different memory models.
func TestQuickReachesEveryCell(t *testing.T) {
	for _, e := range Experiments() {
		check := func(ctx context.Context, workload string, cfg Config) (Result, error) {
			s, err := cfg.ResolvedSpec()
			if err != nil {
				return Result{}, err
			}
			if !s.Memory.Quick() {
				t.Errorf("%s: %s/%s cell (Set %q) is not on the quick tier", e.Name, workload, cfg.Mode, cfg.Set)
			}
			return stubRun(ctx, workload, cfg)
		}
		if _, err := RunExperiment(context.Background(), e.Name, ExpOptions{
			Workloads:       []string{"bfs"},
			MaxInstructions: 10_000,
			Quick:           true,
			Engine:          NewEngine(1, WithRunFunc(check)),
		}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}
