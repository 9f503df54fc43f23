package main

import (
	"time"

	"teasim/internal/bpred"
	"teasim/internal/emu"
	"teasim/internal/isa"
	"teasim/internal/mem"
	"teasim/internal/workloads"
)

const (
	// replayInstrs is how many instructions of each kernel the functional
	// emulator records for the replays.
	replayInstrs = 100_000
	// replayRounds replays every stream this often; the median round is
	// reported.
	replayRounds = 5
)

// memKernels are the suite's memory-bound kernels: mcf, xalancbmk and GAP.
var memKernels = []string{"mcf", "xalancbmk", "bfs", "bc", "cc", "pr", "sssp", "tc"}

type branchRec struct {
	pc, target uint64
	taken      bool
	inst       *isa.Inst
}

type memRec struct {
	addr  uint64
	store bool
}

// record runs a kernel on the functional emulator and keeps its branch and
// memory streams.
func record(name string) ([]branchRec, []memRec, error) {
	w, _ := workloads.ByName(name)
	m := emu.New(w.Build(1))
	var br []branchRec
	var ms []memRec
	for i := 0; i < replayInstrs && !m.Halted; i++ {
		s, err := m.Step()
		if err != nil {
			return nil, nil, err
		}
		if s.IsBranch {
			br = append(br, branchRec{pc: s.PC, target: s.Target, taken: s.Taken, inst: s.Inst})
		}
		if s.IsLoad || s.IsStore {
			ms = append(ms, memRec{addr: s.MemAddr, store: s.IsStore})
		}
	}
	return br, ms, nil
}

// replayBranches drives a fresh predictor through a stream in retire order:
// predict, recover on a misprediction, train. It returns the mispredictions.
func replayBranches(p *bpred.Predictor, stream []branchRec) int {
	var pred bpred.Pred
	miss := 0
	for i := range stream {
		b := &stream[i]
		p.PredictInto(b.pc, &pred)
		if pred.Taken != b.taken || (b.taken && pred.Target != b.target) {
			miss++
			p.Recover(&pred, b.inst, b.taken, b.target)
		}
		p.Train(&pred, b.inst, b.taken, b.target)
	}
	return miss
}

// replayMem issues a stream to a fresh, empty hierarchy, one access per
// cycle; a refused access is retried on the next cycle. It returns the
// attempts and the refusals.
func replayMem(h *mem.Hierarchy, stream []memRec) (attempts, refused int) {
	var now uint64
	for _, a := range stream {
		for {
			attempts++
			var ok bool
			if a.store {
				_, ok = h.StoreCommit(a.addr, now)
			} else {
				_, ok = h.Load(a.addr, now)
			}
			now++
			if ok {
				break
			}
			refused++
		}
	}
	return attempts, refused
}

// replayLayers measures the branch predictor and the memory hierarchy alone,
// on streams the suite's kernels produce, outside any pipeline.
func replayLayers(o *outcome) {
	var branches [][]branchRec
	var accesses [][]memRec
	isMem := map[string]bool{}
	for _, k := range memKernels {
		isMem[k] = true
	}
	for _, w := range workloads.All() {
		br, ms, err := record(w.Name)
		if err != nil {
			o.problemf("recording %s: %v", w.Name, err)
			return
		}
		branches = append(branches, br)
		if isMem[w.Name] {
			accesses = append(accesses, ms)
		}
	}

	var nBr, nMiss int
	var brNS, memNS []float64
	var nAtt, nRef, nAcc int
	for r := 0; r < replayRounds; r++ {
		// Fresh predictors and hierarchies per round, built before timing.
		preds := make([]*bpred.Predictor, len(branches))
		for i := range preds {
			preds[i] = bpred.New()
		}
		hs := make([]*mem.Hierarchy, len(accesses))
		for i := range hs {
			hs[i] = mem.NewHierarchy(mem.DefaultHierarchyConfig())
		}
		nBr, nMiss = 0, 0
		t := time.Now()
		for i, s := range branches {
			nBr += len(s)
			nMiss += replayBranches(preds[i], s)
		}
		brNS = append(brNS, float64(time.Since(t))/float64(nBr))

		nAtt, nRef, nAcc = 0, 0, 0
		t = time.Now()
		for i, s := range accesses {
			a, f := replayMem(hs[i], s)
			nAtt, nRef, nAcc = nAtt+a, nRef+f, nAcc+len(s)
		}
		memNS = append(memNS, float64(time.Since(t))/float64(nAcc))
	}
	o.metrics["bpred.ns_per_branch"] = median(brNS)
	o.metrics["bpred.branches"] = float64(nBr)
	o.metrics["bpred.mispredict_ratio"] = float64(nMiss) / float64(nBr)
	o.metrics["mem.ns_per_access"] = median(memNS)
	o.metrics["mem.accesses"] = float64(nAcc)
	o.metrics["mem.reject_ratio"] = float64(nRef) / float64(nAtt)
}
