package workloads

import (
	"math"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

// The six GAP benchmark kernels (Beamer et al.), implemented for real on
// synthetic graphs. All are "simple control flow" per the paper's §V-C
// classification: their H2P branches live in plain loops (the Fig. 1
// pattern) with largely independent dependence chains.

const infDist = uint64(1) << 40

// emitGraph places a graph's CSR arrays and returns their base addresses.
func emitGraph(b *asm.Builder, l *layout, g *graph, withWeights bool) (offs, nbrs, w uint64) {
	offs = l.words(g.n + 1)
	nbrs = l.words(len(g.nbrs) + 1)
	b.DataU64(offs, g.offs)
	b.DataU64(nbrs, g.nbrs)
	if withWeights {
		w = l.words(len(g.w) + 1)
		b.DataU64(w, g.w)
	}
	return
}

// idx emits "dst = base + (i << 3)" (clobbers r28).
func idx(b *asm.Builder, dst, base, i isa.Reg) {
	b.ShlI(isa.R28, i, 3)
	b.Add(dst, base, isa.R28)
}

// --- BFS ---

// BFS builds the breadth-first-search kernel: a frontier queue sweep whose
// "already visited?" check is the canonical data-dependent H2P branch.
func BFS() Workload {
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xBF5)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, _ := emitGraph(b, l, g, false)
		dist := l.words(g.n)
		queue := l.words(g.n + 1)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.LiU(isa.R3, dist)
		b.LiU(isa.R4, queue)
		b.Li(isa.R5, 0) // head
		b.Li(isa.R6, 1) // tail
		b.LiU(isa.R7, infDist)
		b.Li(isa.R9, int64(g.n))
		// dist[i] = INF
		b.Li(isa.R8, 0)
		b.Label("init")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.St(isa.R10, 0, isa.R7)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "init")
		// dist[0] = 0; queue[0] = 0
		b.St(isa.R3, 0, isa.R0)
		b.St(isa.R4, 0, isa.R0)

		b.Label("loop")
		b.Beq(isa.R5, isa.R6, "done")
		idx(b, isa.R10, isa.R4, isa.R5)
		b.Ld(isa.R11, isa.R10, 0) // u
		b.AddI(isa.R5, isa.R5, 1)
		idx(b, isa.R12, isa.R3, isa.R11)
		b.Ld(isa.R13, isa.R12, 0)   // dist[u]
		b.AddI(isa.R13, isa.R13, 1) // du+1
		idx(b, isa.R10, isa.R1, isa.R11)
		b.Ld(isa.R14, isa.R10, 0) // start
		b.Ld(isa.R15, isa.R10, 8) // end
		b.Label("nbr")
		b.Bgeu(isa.R14, isa.R15, "loop")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		b.AddI(isa.R14, isa.R14, 1)
		idx(b, isa.R17, isa.R3, isa.R16)
		b.Ld(isa.R18, isa.R17, 0)     // dist[v]
		b.Bne(isa.R18, isa.R7, "nbr") // H2P: visited?
		b.St(isa.R17, 0, isa.R13)
		idx(b, isa.R10, isa.R4, isa.R6)
		b.St(isa.R10, 0, isa.R16)
		b.AddI(isa.R6, isa.R6, 1)
		b.Jmp("nbr")

		b.Label("done")
		// result 0: sum of reachable distances; result 1: reached count
		b.Li(isa.R20, 0)
		b.Li(isa.R21, 0)
		b.Li(isa.R8, 0)
		b.Label("res")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.Beq(isa.R11, isa.R7, "skipres")
		b.Add(isa.R20, isa.R20, isa.R11)
		b.AddI(isa.R21, isa.R21, 1)
		b.Label("skipres")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "res")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xBF5)
		dist := nativeBFS(g, 0)
		var sum, reached uint64
		for _, dv := range dist {
			if dv != infDist {
				sum += dv
				reached++
			}
		}
		return []uint64{sum, reached}
	}
	return Workload{Name: "bfs", Flow: Simple, Build: build, Expected: expected}
}

func nativeBFS(g *graph, src int) []uint64 {
	dist := make([]uint64, g.n)
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u] + 1
		for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
			if dist[v] == infDist {
				dist[v] = du
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// --- CC ---

// CC builds the connected-components kernel (min-label propagation).
func CC() Workload {
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xCC7)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, _ := emitGraph(b, l, g, false)
		label := l.words(g.n)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.LiU(isa.R3, label)
		b.Li(isa.R9, int64(g.n))
		// label[i] = i
		b.Li(isa.R8, 0)
		b.Label("init")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.St(isa.R10, 0, isa.R8)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "init")

		b.Label("outer")
		b.Li(isa.R20, 0) // changed
		b.Li(isa.R8, 0)  // u
		b.Label("vloop")
		idx(b, isa.R21, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R21, 0) // lu
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R14, isa.R10, 0)
		b.Ld(isa.R15, isa.R10, 8)
		b.Label("eloop")
		b.Bgeu(isa.R14, isa.R15, "vnext")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		b.AddI(isa.R14, isa.R14, 1)
		idx(b, isa.R17, isa.R3, isa.R16)
		b.Ld(isa.R18, isa.R17, 0)         // lv
		b.Bltu(isa.R18, isa.R11, "pullv") // H2P: lv < lu
		b.Bltu(isa.R11, isa.R18, "pushv") // H2P: lu < lv
		b.Jmp("eloop")
		b.Label("pullv")
		b.Mov(isa.R11, isa.R18)
		b.St(isa.R21, 0, isa.R11)
		b.Li(isa.R20, 1)
		b.Jmp("eloop")
		b.Label("pushv")
		b.St(isa.R17, 0, isa.R11)
		b.Li(isa.R20, 1)
		b.Jmp("eloop")
		b.Label("vnext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "vloop")
		b.Bnez(isa.R20, "outer")

		// result 0: sum of labels; result 1: component count
		b.Li(isa.R20, 0)
		b.Li(isa.R21, 0)
		b.Li(isa.R8, 0)
		b.Label("res")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.Add(isa.R20, isa.R20, isa.R11)
		b.Bne(isa.R11, isa.R8, "skipc")
		b.AddI(isa.R21, isa.R21, 1)
		b.Label("skipc")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "res")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xCC7)
		label := make([]uint64, g.n)
		for i := range label {
			label[i] = uint64(i)
		}
		for changed := true; changed; {
			changed = false
			for u := 0; u < g.n; u++ {
				lu := label[u]
				for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
					lv := label[v]
					if lv < lu {
						lu = lv
						label[u] = lu
						changed = true
					} else if lu < lv {
						label[v] = lu
						changed = true
					}
				}
			}
		}
		var sum, comps uint64
		for i, lv := range label {
			sum += lv
			if lv == uint64(i) {
				comps++
			}
		}
		return []uint64{sum, comps}
	}
	return Workload{Name: "cc", Flow: Simple, Build: build, Expected: expected}
}

// --- SSSP ---

// SSSP builds the Bellman-Ford kernel with a bounded round count; the relax
// condition is the H2P branch guarding long-latency loads.
func SSSP() Workload {
	const maxRounds = 48
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := genGraph(n, d, 0x55B)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, w := emitGraph(b, l, g, true)
		dist := l.words(g.n)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.LiU(isa.R3, dist)
		b.LiU(isa.R4, w)
		b.LiU(isa.R7, infDist)
		b.Li(isa.R9, int64(g.n))
		b.Li(isa.R8, 0)
		b.Label("init")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.St(isa.R10, 0, isa.R7)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "init")
		b.St(isa.R3, 0, isa.R0) // dist[0] = 0
		b.Li(isa.R22, 0)        // round

		b.Label("round")
		b.Li(isa.R20, 0) // changed
		b.Li(isa.R8, 0)  // u
		b.Label("vloop")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R13, isa.R10, 0)       // du
		b.Beq(isa.R13, isa.R7, "vnext") // H2P: unreached yet?
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R14, isa.R10, 0)
		b.Ld(isa.R15, isa.R10, 8)
		b.Label("eloop")
		b.Bgeu(isa.R14, isa.R15, "vnext")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		idx(b, isa.R10, isa.R4, isa.R14)
		b.Ld(isa.R19, isa.R10, 0) // weight
		b.AddI(isa.R14, isa.R14, 1)
		b.Add(isa.R19, isa.R13, isa.R19) // nd = du + w
		idx(b, isa.R17, isa.R3, isa.R16)
		b.Ld(isa.R18, isa.R17, 0)         // dist[v]
		b.Bgeu(isa.R19, isa.R18, "eloop") // H2P: relax?
		b.St(isa.R17, 0, isa.R19)
		b.Li(isa.R20, 1)
		b.Jmp("eloop")
		b.Label("vnext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "vloop")
		b.AddI(isa.R22, isa.R22, 1)
		b.SltI(isa.R23, isa.R22, maxRounds)
		b.Beqz(isa.R23, "finish")
		b.Bnez(isa.R20, "round")

		b.Label("finish")
		b.Li(isa.R20, 0)
		b.Li(isa.R21, 0)
		b.Li(isa.R8, 0)
		b.Label("res")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.Beq(isa.R11, isa.R7, "skipres")
		b.Add(isa.R20, isa.R20, isa.R11)
		b.AddI(isa.R21, isa.R21, 1)
		b.Label("skipres")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "res")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := genGraph(n, d, 0x55B)
		dist := make([]uint64, g.n)
		for i := range dist {
			dist[i] = infDist
		}
		dist[0] = 0
		for round := 0; round < maxRounds; round++ {
			changed := false
			for u := 0; u < g.n; u++ {
				du := dist[u]
				if du == infDist {
					continue
				}
				for e := g.offs[u]; e < g.offs[u+1]; e++ {
					v := g.nbrs[e]
					nd := du + g.w[e]
					if nd < dist[v] {
						dist[v] = nd
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		var sum, reached uint64
		for _, dv := range dist {
			if dv != infDist {
				sum += dv
				reached++
			}
		}
		return []uint64{sum, reached}
	}
	return Workload{Name: "sssp", Flow: Simple, Build: build, Expected: expected}
}

// --- PR ---

// PR builds the PageRank kernel: push-style rank distribution with a
// floating-point convergence check per vertex.
func PR() Workload {
	const iters = 12
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := genGraph(n, d, 0x9A6E)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, _ := emitGraph(b, l, g, false)
		rank := l.words(g.n)
		next := l.words(g.n)

		base := 0.15 / float64(g.n)
		init := 1.0 / float64(g.n)
		eps := 1.0 / float64(16*g.n)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.LiU(isa.R3, rank)
		b.LiU(isa.R4, next)
		b.Li(isa.R9, int64(g.n))
		b.Li(isa.R24, int64(math.Float64bits(base)))
		b.Li(isa.R25, int64(math.Float64bits(init)))
		b.Li(isa.R26, int64(math.Float64bits(0.85)))
		b.Li(isa.R27, int64(math.Float64bits(eps)))
		// rank[i] = 1/n
		b.Li(isa.R8, 0)
		b.Label("init")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.St(isa.R10, 0, isa.R25)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "init")
		b.Li(isa.R22, 0) // iter

		b.Label("iter")
		// next[i] = base
		b.Li(isa.R8, 0)
		b.Label("clr")
		idx(b, isa.R10, isa.R4, isa.R8)
		b.St(isa.R10, 0, isa.R24)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "clr")
		// push contributions
		b.Li(isa.R8, 0)
		b.Label("vloop")
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R14, isa.R10, 0)
		b.Ld(isa.R15, isa.R10, 8)
		b.Beq(isa.R14, isa.R15, "vnext") // no out-edges
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0) // rank[u] bits
		b.Sub(isa.R12, isa.R15, isa.R14)
		b.FCvt(isa.R12, isa.R12)          // deg as f64
		b.FDiv(isa.R11, isa.R11, isa.R12) // share
		b.FMul(isa.R11, isa.R11, isa.R26) // 0.85*share
		b.Label("eloop")
		b.Bgeu(isa.R14, isa.R15, "vnext")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		b.AddI(isa.R14, isa.R14, 1)
		idx(b, isa.R17, isa.R4, isa.R16)
		b.Ld(isa.R18, isa.R17, 0)
		b.FAdd(isa.R18, isa.R18, isa.R11)
		b.St(isa.R17, 0, isa.R18)
		b.Jmp("eloop")
		b.Label("vnext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "vloop")
		// convergence count + copy next->rank
		b.Li(isa.R20, 0) // active
		b.Li(isa.R8, 0)
		b.Label("conv")
		idx(b, isa.R10, isa.R4, isa.R8)
		b.Ld(isa.R18, isa.R10, 0) // next
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0) // rank
		b.St(isa.R10, 0, isa.R18)
		b.FSub(isa.R12, isa.R18, isa.R11)
		b.FLt(isa.R13, isa.R12, isa.R0) // diff < 0.0 (bits of 0.0 == 0)
		b.Beqz(isa.R13, "abs")
		b.Xor(isa.R28, isa.R28, isa.R28)
		b.FSub(isa.R12, isa.R28, isa.R12) // negate via 0.0 - diff
		b.Label("abs")
		b.FLt(isa.R13, isa.R27, isa.R12) // eps < |diff|  (H2P: data-dependent)
		b.Beqz(isa.R13, "inactive")
		b.AddI(isa.R20, isa.R20, 1)
		b.Label("inactive")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "conv")
		b.AddI(isa.R22, isa.R22, 1)
		b.SltI(isa.R23, isa.R22, iters)
		b.Bnez(isa.R23, "iter")

		// result 0: last active count; result 1: scaled rank sum
		storeResult(b, 0, isa.R20)
		b.Li(isa.R20, 0) // fp sum bits in r20
		b.Li(isa.R8, 0)
		b.Label("res")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.FAdd(isa.R20, isa.R20, isa.R11)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "res")
		b.Li(isa.R11, int64(math.Float64bits(1e6)))
		b.FMul(isa.R20, isa.R20, isa.R11)
		b.FInt(isa.R20, isa.R20)
		storeResult(b, 1, isa.R20)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := genGraph(n, d, 0x9A6E)
		base := 0.15 / float64(g.n)
		eps := 1.0 / float64(16*g.n)
		rank := make([]float64, g.n)
		next := make([]float64, g.n)
		for i := range rank {
			rank[i] = 1.0 / float64(g.n)
		}
		var active uint64
		for it := 0; it < iters; it++ {
			for i := range next {
				next[i] = base
			}
			for u := 0; u < g.n; u++ {
				deg := g.offs[u+1] - g.offs[u]
				if deg == 0 {
					continue
				}
				contrib := 0.85 * (rank[u] / float64(deg))
				for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
					next[v] += contrib
				}
			}
			active = 0
			for i := range rank {
				diff := next[i] - rank[i]
				old := rank[i]
				rank[i] = next[i]
				_ = old
				if diff < 0 {
					diff = 0 - diff
				}
				if eps < diff {
					active++
				}
			}
		}
		var sum float64
		for _, rv := range rank {
			sum += rv
		}
		return []uint64{active, uint64(int64(sum * 1e6))}
	}
	return Workload{Name: "pr", Flow: Simple, Build: build, Expected: expected}
}

// --- TC ---

// TC builds the triangle-counting kernel: sorted adjacency merge
// intersection, whose comparison ladder is notoriously hard to predict.
func TC() Workload {
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := undirected(n/2, d, 0x7C7) // halve n: tc is O(m^1.5)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, _ := emitGraph(b, l, g, false)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.Li(isa.R9, int64(g.n))
		b.Li(isa.R20, 0) // triangles
		b.Li(isa.R8, 0)  // u
		b.Label("uloop")
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R14, isa.R10, 0) // e
		b.Ld(isa.R15, isa.R10, 8) // eEnd
		b.Label("eloop")
		b.Bgeu(isa.R14, isa.R15, "unext")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		b.AddI(isa.R14, isa.R14, 1)
		b.Bgeu(isa.R8, isa.R16, "eloop") // orientation: v > u only
		// merge N(u) x N(v)
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R11, isa.R10, 0) // i
		idx(b, isa.R10, isa.R1, isa.R16)
		b.Ld(isa.R12, isa.R10, 0) // j
		b.Ld(isa.R13, isa.R10, 8) // jEnd
		b.Label("merge")
		b.Bgeu(isa.R11, isa.R15, "eloop")
		b.Bgeu(isa.R12, isa.R13, "eloop")
		idx(b, isa.R10, isa.R2, isa.R11)
		b.Ld(isa.R18, isa.R10, 0) // a
		idx(b, isa.R10, isa.R2, isa.R12)
		b.Ld(isa.R19, isa.R10, 0)        // c
		b.Bltu(isa.R18, isa.R19, "adva") // H2P ladder
		b.Bltu(isa.R19, isa.R18, "advb")
		b.Bgeu(isa.R16, isa.R18, "advc") // only w > v
		b.AddI(isa.R20, isa.R20, 1)
		b.Label("advc")
		b.AddI(isa.R11, isa.R11, 1)
		b.AddI(isa.R12, isa.R12, 1)
		b.Jmp("merge")
		b.Label("adva")
		b.AddI(isa.R11, isa.R11, 1)
		b.Jmp("merge")
		b.Label("advb")
		b.AddI(isa.R12, isa.R12, 1)
		b.Jmp("merge")
		b.Label("unext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "uloop")
		storeResult(b, 0, isa.R20)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := undirected(n/2, d, 0x7C7)
		var count uint64
		for u := 0; u < g.n; u++ {
			for _, v64 := range g.nbrs[g.offs[u]:g.offs[u+1]] {
				v := int(v64)
				if v <= u {
					continue
				}
				i, iEnd := g.offs[u], g.offs[u+1]
				j, jEnd := g.offs[v], g.offs[v+1]
				for i < iEnd && j < jEnd {
					a, c := g.nbrs[i], g.nbrs[j]
					switch {
					case a < c:
						i++
					case c < a:
						j++
					default:
						if a > uint64(v) {
							count++
						}
						i++
						j++
					}
				}
			}
		}
		return []uint64{count}
	}
	return Workload{Name: "tc", Flow: Simple, Build: build, Expected: expected}
}

// --- BC ---

// BC builds the Brandes betweenness-centrality kernel (single source):
// a forward BFS with path counting and a backward dependency accumulation.
func BC() Workload {
	build := func(scale int) *isa.Program {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xBC4)
		b := asm.NewBuilder()
		l := newLayout()
		offs, nbrs, _ := emitGraph(b, l, g, false)
		dist := l.words(g.n)
		sigma := l.words(g.n)
		order := l.words(g.n + 1)
		delta := l.words(g.n)

		b.Label("main")
		b.LiU(isa.R1, offs)
		b.LiU(isa.R2, nbrs)
		b.LiU(isa.R3, dist)
		b.LiU(isa.R4, order)
		b.LiU(isa.R5, sigma)
		b.LiU(isa.R6, delta)
		b.LiU(isa.R7, infDist)
		b.Li(isa.R9, int64(g.n))
		// init dist=INF sigma=0 delta=0.0
		b.Li(isa.R8, 0)
		b.Label("init")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.St(isa.R10, 0, isa.R7)
		idx(b, isa.R10, isa.R5, isa.R8)
		b.St(isa.R10, 0, isa.R0)
		idx(b, isa.R10, isa.R6, isa.R8)
		b.St(isa.R10, 0, isa.R0)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "init")
		b.St(isa.R3, 0, isa.R0) // dist[0]=0
		b.Li(isa.R11, 1)
		b.St(isa.R5, 0, isa.R11) // sigma[0]=1
		b.St(isa.R4, 0, isa.R0)  // order[0]=0
		b.Li(isa.R21, 0)         // head
		b.Li(isa.R22, 1)         // tail

		b.Label("bfs")
		b.Beq(isa.R21, isa.R22, "back")
		idx(b, isa.R10, isa.R4, isa.R21)
		b.Ld(isa.R11, isa.R10, 0) // u
		b.AddI(isa.R21, isa.R21, 1)
		idx(b, isa.R10, isa.R3, isa.R11)
		b.Ld(isa.R13, isa.R10, 0)
		b.AddI(isa.R13, isa.R13, 1) // du+1
		idx(b, isa.R12, isa.R5, isa.R11)
		b.Ld(isa.R23, isa.R12, 0) // sigma[u]
		idx(b, isa.R10, isa.R1, isa.R11)
		b.Ld(isa.R14, isa.R10, 0)
		b.Ld(isa.R15, isa.R10, 8)
		b.Label("nbr")
		b.Bgeu(isa.R14, isa.R15, "bfs")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v
		b.AddI(isa.R14, isa.R14, 1)
		idx(b, isa.R17, isa.R3, isa.R16)
		b.Ld(isa.R18, isa.R17, 0)
		b.Beq(isa.R18, isa.R7, "discover") // H2P
		b.Bne(isa.R18, isa.R13, "nbr")     // H2P: same-level path?
		// sigma[v] += sigma[u]
		idx(b, isa.R10, isa.R5, isa.R16)
		b.Ld(isa.R19, isa.R10, 0)
		b.Add(isa.R19, isa.R19, isa.R23)
		b.St(isa.R10, 0, isa.R19)
		b.Jmp("nbr")
		b.Label("discover")
		b.St(isa.R17, 0, isa.R13)
		idx(b, isa.R10, isa.R5, isa.R16)
		b.St(isa.R10, 0, isa.R23)
		idx(b, isa.R10, isa.R4, isa.R22)
		b.St(isa.R10, 0, isa.R16)
		b.AddI(isa.R22, isa.R22, 1)
		b.Jmp("nbr")

		// Backward accumulation in reverse BFS order.
		b.Label("back")
		b.Label("bloop")
		b.Beqz(isa.R22, "finish")
		b.AddI(isa.R22, isa.R22, -1)
		idx(b, isa.R10, isa.R4, isa.R22)
		b.Ld(isa.R11, isa.R10, 0) // w
		idx(b, isa.R10, isa.R3, isa.R11)
		b.Ld(isa.R13, isa.R10, 0)
		b.AddI(isa.R13, isa.R13, 1) // dw+1
		idx(b, isa.R10, isa.R5, isa.R11)
		b.Ld(isa.R23, isa.R10, 0)
		b.FCvt(isa.R23, isa.R23) // f(sigma[w])
		idx(b, isa.R24, isa.R6, isa.R11)
		b.Ld(isa.R25, isa.R24, 0) // delta[w] bits
		idx(b, isa.R10, isa.R1, isa.R11)
		b.Ld(isa.R14, isa.R10, 0)
		b.Ld(isa.R15, isa.R10, 8)
		b.Label("bnbr")
		b.Bgeu(isa.R14, isa.R15, "bstore")
		idx(b, isa.R10, isa.R2, isa.R14)
		b.Ld(isa.R16, isa.R10, 0) // v (successor candidate)
		b.AddI(isa.R14, isa.R14, 1)
		idx(b, isa.R10, isa.R3, isa.R16)
		b.Ld(isa.R18, isa.R10, 0)
		b.Bne(isa.R18, isa.R13, "bnbr") // H2P: dist[v] == dist[w]+1 ?
		// delta[w] += sigma[w]/sigma[v] * (1 + delta[v])
		idx(b, isa.R10, isa.R5, isa.R16)
		b.Ld(isa.R19, isa.R10, 0)
		b.FCvt(isa.R19, isa.R19)
		b.FDiv(isa.R19, isa.R23, isa.R19)
		idx(b, isa.R10, isa.R6, isa.R16)
		b.Ld(isa.R26, isa.R10, 0)
		b.Li(isa.R27, int64(math.Float64bits(1.0)))
		b.FAdd(isa.R26, isa.R26, isa.R27)
		b.FMul(isa.R19, isa.R19, isa.R26)
		b.FAdd(isa.R25, isa.R25, isa.R19)
		b.Jmp("bnbr")
		b.Label("bstore")
		b.St(isa.R24, 0, isa.R25)
		b.Jmp("bloop")

		b.Label("finish")
		// result 0: scaled sum of delta; result 1: sum of sigma
		b.Li(isa.R20, 0)
		b.Li(isa.R21, 0)
		b.Li(isa.R8, 0)
		b.Label("res")
		idx(b, isa.R10, isa.R6, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.FAdd(isa.R20, isa.R20, isa.R11)
		idx(b, isa.R10, isa.R5, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.Add(isa.R21, isa.R21, isa.R11)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "res")
		b.Li(isa.R11, int64(math.Float64bits(1e3)))
		b.FMul(isa.R20, isa.R20, isa.R11)
		b.FInt(isa.R20, isa.R20)
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n, d := graphScale(scale)
		g := undirected(n, d, 0xBC4)
		dist := make([]uint64, g.n)
		sigma := make([]uint64, g.n)
		delta := make([]float64, g.n)
		for i := range dist {
			dist[i] = infDist
		}
		dist[0] = 0
		sigma[0] = 1
		order := []int{0}
		for head := 0; head < len(order); head++ {
			u := order[head]
			du := dist[u] + 1
			su := sigma[u]
			for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
				if dist[v] == infDist {
					dist[v] = du
					sigma[v] = su
					order = append(order, int(v))
				} else if dist[v] == du {
					sigma[v] += su
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			dw := dist[w] + 1
			sw := float64(sigma[w])
			dcc := delta[w]
			for _, v := range g.nbrs[g.offs[w]:g.offs[w+1]] {
				if dist[v] == dw {
					dcc += sw / float64(sigma[v]) * (1 + delta[v])
				}
			}
			delta[w] = dcc
		}
		var dsum float64
		var ssum uint64
		for i := 0; i < g.n; i++ {
			dsum += delta[i]
			ssum += sigma[i]
		}
		return []uint64{uint64(int64(dsum * 1e3)), ssum}
	}
	return Workload{Name: "bc", Flow: Simple, Build: build, Expected: expected}
}
