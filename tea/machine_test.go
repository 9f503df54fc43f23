package tea

// Machine-spec resolution tests: the converter contract that presets carry
// exactly the literals the mode switches used to, and the resolution-order
// rules of Config.ResolvedSpec. Real-run equivalence (preset spec vs mode)
// lives in spec_equivalence_test.go.

import (
	"reflect"
	"strings"
	"testing"

	"teasim/internal/core"
	"teasim/internal/pipeline"
	"teasim/internal/runahead"
	"teasim/tea/spec"
)

// TestBaselineSpecMatchesDefaultConfigs pins the bit-identity foundation:
// converting the baseline preset must reproduce the simulator packages'
// DefaultConfig values exactly, field for field. If either side gains a
// field or changes a literal, this fails before any golden drifts.
func TestBaselineSpecMatchesDefaultConfigs(t *testing.T) {
	s := spec.Baseline()
	got := pipelineConfig(&s)
	if want := pipeline.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("pipelineConfig(Baseline) != pipeline.DefaultConfig():\ngot:  %+v\nwant: %+v", got, want)
	}
	if got, want := core.ConfigFromSpec(spec.DefaultTEA()), core.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("core.ConfigFromSpec(DefaultTEA) != core.DefaultConfig():\ngot:  %+v\nwant: %+v", got, want)
	}
	if got, want := runahead.ConfigFromSpec(spec.DefaultRunahead()), runahead.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("runahead.ConfigFromSpec(DefaultRunahead) != runahead.DefaultConfig():\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestModePresetsMatchModeSwitches pins each preset's pipeline-level shape
// to what the old per-mode switch hardcoded.
func TestModePresetsMatchModeSwitches(t *testing.T) {
	base := pipeline.DefaultConfig()
	cases := []struct {
		mode Mode
		want func() pipeline.Config
	}{
		{ModeBaseline, func() pipeline.Config { return base }},
		{ModeTEA, func() pipeline.Config { return base }},
		{ModeTEADedicated, func() pipeline.Config {
			c := base
			c.CompanionDedicated = true
			c.CompanionPorts = 16
			return c
		}},
		{ModeBranchRunahead, func() pipeline.Config { return base }},
		{ModeTEABigEngine, func() pipeline.Config {
			c := base
			c.CompanionDedicated = true
			c.CompanionPorts = c.ALUPorts + c.LDPorts + c.LDSTPorts + c.FPPorts
			return c
		}},
		{ModeWide16, func() pipeline.Config {
			c := base
			c.FrontWidth = 16
			c.FrontQCap = 192
			return c
		}},
	}
	if len(cases) != len(Modes()) {
		t.Fatalf("mode switch table covers %d modes, registry has %d", len(cases), len(Modes()))
	}
	for _, tc := range cases {
		s, err := tc.mode.Preset()
		if err != nil {
			t.Errorf("%s: %v", tc.mode, err)
			continue
		}
		if got, want := pipelineConfig(&s), tc.want(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s preset pipeline config:\ngot:  %+v\nwant: %+v", tc.mode, got, want)
		}
	}
}

// TestModePresetRegistry asserts the mode enum and the spec preset registry
// stay consistent: every mode resolves a preset of the same name, and every
// registered preset is reachable either from a mode or as a companion
// kind's same-named zoo preset (the shootout's entry point).
func TestModePresetRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, m := range Modes() {
		if _, err := m.Preset(); err != nil {
			t.Errorf("mode %s has no preset: %v", m, err)
		}
		parsed, err := ParseMode(m.String())
		if err != nil || parsed != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), parsed, err, m)
		}
		names[m.String()] = true
	}
	for _, k := range spec.Kinds() {
		names[string(k)] = true
	}
	for _, p := range spec.Presets() {
		if !names[p] {
			t.Errorf("preset %q reachable from neither a Mode nor a companion kind", p)
		}
	}
}

// TestResolvedSpecOrder asserts the resolution order: explicit spec (or
// preset) → Set patches in order, with a later patch winning.
func TestResolvedSpecOrder(t *testing.T) {
	cfg := Config{
		Mode: ModeTEA,
		Set: []string{
			"companion.tea.only_loops=true",
			"companion.tea.fill_buf_size=256",
			"companion.tea.fill_buf_size=1024",
		},
	}
	s, err := cfg.ResolvedSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Companion.TEA.OnlyLoops {
		t.Error("ablation patch did not reach the resolved spec")
	}
	if s.Companion.TEA.FillBufSize != 1024 {
		t.Errorf("fill_buf_size = %d; the later patch must win", s.Companion.TEA.FillBufSize)
	}

	// A patch applies on top of an explicit spec, not the Mode's preset.
	teaSpec, err := ModeTEA.Preset()
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{Mode: ModeBaseline, Spec: &teaSpec, Set: []string{"companion.tea.no_mem=true"}}
	if s, err = cfg.ResolvedSpec(); err != nil {
		t.Fatal(err)
	}
	if !s.Companion.TEA.NoMem {
		t.Error("patch on an explicit spec did not reach the resolved spec")
	}
	if teaSpec.Companion.TEA.NoMem {
		t.Error("resolution patched the caller's spec instead of a clone")
	}
}

// TestResolvedSpecRejectsCompanionOverridesOnBaseline asserts TEA-only
// patches error on TEA-less machines instead of being silently dropped.
func TestResolvedSpecRejectsCompanionOverridesOnBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ablation", Config{Mode: ModeBaseline, Set: []string{"companion.tea.only_loops=true"}}},
		{"size override", Config{Mode: ModeBaseline, Set: []string{"companion.tea.fill_buf_size=256"}}},
		{"wide16 ablation", Config{Mode: ModeWide16, Set: []string{"companion.tea.no_mem=true"}}},
		{"runahead tea override", Config{Mode: ModeBranchRunahead, Set: []string{"companion.tea.block_cache_sets=8"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.ResolvedSpec()
			if err == nil || !strings.Contains(err.Error(), "companion.tea is not populated") {
				t.Fatalf("ResolvedSpec = %v, want a companion.tea-not-populated error", err)
			}
			// And the run itself fails the same way.
			if _, err := Run("bfs", tc.cfg); err == nil {
				t.Fatal("Run accepted a config whose spec cannot resolve")
			}
		})
	}

	// An invalid patch is also rejected at resolution.
	_, err := Config{Mode: ModeBaseline, Set: []string{"backend.rob_size=-1"}}.ResolvedSpec()
	if err == nil || !strings.Contains(err.Error(), "rob_size") {
		t.Fatalf("negative rob_size resolved: %v", err)
	}
}

// TestSpecFingerprintEquivalences asserts the identities the memo cache
// relies on: patches and hand-edited specs fingerprint identically when they
// describe the same machine.
func TestSpecFingerprintEquivalences(t *testing.T) {
	fp := func(c Config) uint64 {
		t.Helper()
		v, err := c.SpecFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	plain := fp(Config{Mode: ModeTEA})
	if redundant := fp(Config{Mode: ModeTEA, Set: []string{"companion.tea.fill_buf_size=512"}}); redundant != plain {
		t.Error("patch to the preset value changed the fingerprint")
	}
	patched := fp(Config{Mode: ModeTEA, Set: []string{"companion.tea.fill_buf_size=1024"}})
	if patched == plain {
		t.Error("changing the fill buffer did not change the fingerprint")
	}

	teaSpec, err := ModeTEA.Preset()
	if err != nil {
		t.Fatal(err)
	}
	teaSpec.Companion.TEA.FillBufSize = 1024
	if explicit := fp(Config{Spec: &teaSpec}); explicit != patched {
		t.Error("hand-edited spec and its -set patch fingerprint differently")
	}

	// Behavioral knobs (CoSim, reference paths, telemetry) are not machine
	// state.
	if cosim := fp(Config{Mode: ModeTEA, CoSim: true}); cosim != plain {
		t.Error("CoSim changed the machine fingerprint")
	}
	noSkip := Config{Mode: ModeTEA, pipe: func(p *pipeline.Config) { p.NoIdleSkip = true }}
	if fp(noSkip) != plain {
		t.Error("a pipeline reference path changed the machine fingerprint")
	}
}

// TestPatchedCopiesSet asserts patched never writes into the caller's Set
// backing array: two cells patched from one shared Set keep their own
// patches.
func TestPatchedCopiesSet(t *testing.T) {
	shared := make([]string, 1, 4)
	shared[0] = "memory.model=quick"
	a := Config{Set: shared}.patched("companion.tea.no_mem=true")
	b := Config{Set: shared}.patched("companion.tea.no_masks=true")
	if want := []string{"memory.model=quick", "companion.tea.no_mem=true"}; !reflect.DeepEqual(a.Set, want) {
		t.Errorf("a.Set = %q, want %q", a.Set, want)
	}
	if want := []string{"memory.model=quick", "companion.tea.no_masks=true"}; !reflect.DeepEqual(b.Set, want) {
		t.Errorf("b.Set = %q, want %q", b.Set, want)
	}
}
