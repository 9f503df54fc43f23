package tea

import (
	"fmt"
	"slices"

	"teasim/internal/bpred"
	"teasim/internal/mem"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

// ResolvedSpec resolves the machine point this configuration simulates:
// Config.Spec (or, when nil, the Mode's preset), then the Set patches in
// order, then validation. The result is what RunContext builds the
// simulator from and what SpecFingerprint hashes, so two configs resolving
// to equal specs simulate identical machines. A TEA patch on a TEA-less
// machine fails ("companion.tea is not populated") rather than reporting
// the unpatched machine's numbers under the patch's name.
func (c Config) ResolvedSpec() (spec.MachineSpec, error) {
	var s spec.MachineSpec
	if c.Spec != nil {
		s = c.Spec.Clone()
	} else {
		var err error
		if s, err = c.Mode.Preset(); err != nil {
			return spec.MachineSpec{}, err
		}
	}
	for _, patch := range c.Set {
		if err := s.Set(patch); err != nil {
			return spec.MachineSpec{}, fmt.Errorf("tea: machine %q: %w", c.machineName(), err)
		}
	}
	if err := s.Validate(); err != nil {
		return spec.MachineSpec{}, fmt.Errorf("tea: machine %q: %w", c.machineName(), err)
	}
	return s, nil
}

// patched returns c with patches appended to a copy of its Set, so a Set
// shared with the caller (an experiment's -quick patch) is never written.
func (c Config) patched(patches ...string) Config {
	c.Set = slices.Concat(c.Set, patches)
	return c
}

// SpecFingerprint returns the resolved spec's canonical fingerprint — the
// machine-identity half of an Engine memoization key and the provenance hash
// stamped into Result.SpecHash.
func (c Config) SpecFingerprint() (uint64, error) {
	s, err := c.ResolvedSpec()
	if err != nil {
		return 0, err
	}
	return s.Fingerprint(), nil
}

// machineName names the configured machine point for error messages.
func (c Config) machineName() string {
	if c.Spec != nil {
		return "custom spec"
	}
	return c.Mode.String()
}

// effectiveMode returns the Result.Mode label: the configured Mode, or — for
// a custom spec — the mode whose scheme the spec's companion matches.
func effectiveMode(c Config, s *spec.MachineSpec) Mode {
	if c.Spec == nil {
		return c.Mode
	}
	switch s.Companion.Kind {
	case spec.CompanionTEA:
		if s.Companion.Dedicated {
			return ModeTEADedicated
		}
		return ModeTEA
	case spec.CompanionRunahead:
		return ModeBranchRunahead
	default:
		return ModeBaseline
	}
}

// pipelineConfig converts the spec's frontend/backend/memory/predictor and
// companion-engine shape into the pipeline configuration. Behavioral fields
// (CoSim, telemetry, budgets) stay with the caller.
func pipelineConfig(s *spec.MachineSpec) pipeline.Config {
	cfg := pipeline.Config{
		FrontWidth:       s.Frontend.Width,
		RetireWidth:      s.Frontend.RetireWidth,
		FetchQueueSize:   s.Frontend.FetchQueueSize,
		FetchToRenameLat: s.Frontend.FetchToRenameLat,
		MaxBlockInstrs:   s.Frontend.MaxBlockInstrs,
		FetchLinesPerCyc: s.Frontend.FetchLinesPerCyc,
		FrontQCap:        s.Frontend.FrontQCap,

		ROBSize:  s.Backend.ROBSize,
		RSSize:   s.Backend.RSSize,
		NumPRegs: s.Backend.NumPRegs,
		LQSize:   s.Backend.LQSize,
		SQSize:   s.Backend.SQSize,

		ALUPorts:  s.Backend.ALUPorts,
		LDPorts:   s.Backend.LDPorts,
		LDSTPorts: s.Backend.LDSTPorts,
		FPPorts:   s.Backend.FPPorts,

		ALULat: s.Backend.ALULat, MulLat: s.Backend.MulLat,
		DivLat: s.Backend.DivLat, FPLat: s.Backend.FPLat,
		FDivLat: s.Backend.FDivLat,

		MispredictExtraLat: s.Backend.MispredictExtraLat,

		BP: bpred.Config{
			TageTables:   s.Predictor.TageTables,
			TageHistLens: s.Predictor.TageHistLens,
			BTBEntries:   s.Predictor.BTBEntries,
			BTBWays:      s.Predictor.BTBWays,
			RASEntries:   s.Predictor.RASEntries,
		},
		Mem: mem.HierarchyConfig{
			L1ISize: s.Memory.L1ISize, L1IWays: s.Memory.L1IWays,
			L1DSize: s.Memory.L1DSize, L1DWays: s.Memory.L1DWays,
			LLCSize: s.Memory.LLCSize, LLCWays: s.Memory.LLCWays,
			L1Lat: s.Memory.L1Lat, LLCLat: s.Memory.LLCLat,
			L1MSHRs: s.Memory.L1MSHRs, LLCMSHRs: s.Memory.LLCMSHRs,

			Quick:          s.Memory.Quick(),
			QuickL1HitPct:  s.Memory.QuickL1HitPct,
			QuickLLCHitPct: s.Memory.QuickLLCHitPct,
			QuickMemLat:    s.Memory.QuickMemLat,
		},

		CompanionDedicated:  s.Companion.Dedicated,
		CompanionPorts:      s.Companion.Ports,
		CompanionNoPriority: s.Companion.NoPriority,
		CompanionPRegs:      192,
	}
	if t := s.Companion.TEA; t != nil {
		cfg.CompanionPRegs = t.PRPartition
	}
	return cfg
}
