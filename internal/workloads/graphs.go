package workloads

// graph is a CSR-format directed graph with sorted adjacency lists (sorted
// neighbors are required by the triangle-counting merge intersection and
// give the GAP kernels realistic memory behaviour).
type graph struct {
	n    int
	offs []uint64 // n+1 offsets into nbrs
	nbrs []uint64
	w    []uint64 // per-edge weights (for sssp; nil on undirected graphs)
}

// genEdges draws a synthetic edge list with a skewed degree distribution
// (Kronecker-flavoured endpoint selection, like the GAP generator's output
// shape): most vertices have near-average degree, a few act as hubs.
func genEdges(n, avgDeg int, seed uint64) (us, vs []uint32) {
	r, m := newRng(seed), n*avgDeg
	us, vs = make([]uint32, 0, m), make([]uint32, 0, m)
	for e := 0; e < m; e++ {
		if u, v := skewedVertex(r, n), skewedVertex(r, n); u != v {
			us, vs = append(us, uint32(u)), append(vs, uint32(v))
		}
	}
	return us, vs
}

// genGraph builds the directed graph of genEdges, with random edge weights.
func genGraph(n, avgDeg int, seed uint64) *graph {
	us, vs := genEdges(n, avgDeg, seed)
	g, wr := csr(n, us, vs), newRng(seed^0xABCD)
	g.w = make([]uint64, len(g.nbrs))
	for i := range g.w {
		g.w[i] = uint64(wr.intn(15)) + 1
	}
	return g
}

// undirected builds genEdges' graph with every edge mirrored (bfs/cc/bc/tc).
func undirected(n, avgDeg int, seed uint64) *graph {
	us, vs := genEdges(n, avgDeg, seed)
	return csr(n, append(us, vs...), append(vs, us...))
}

// skewedVertex picks a vertex with a power-law-ish bias: a few repeated
// halvings of the range concentrate probability on low vertex ids.
func skewedVertex(r *rng, n int) int {
	v := r.intn(n)
	for r.next()&3 == 0 { // 25% chance per level to bias toward hubs
		v /= 2
	}
	return v
}

// csr lays out the edges us[i]→vs[i] (vertex ids below n) as a graph whose
// adjacency lists are ascending and free of parallel edges (they skew
// triangle counting), in linear time: a counting sort of the sources by
// neighbour, a stable counting sort by source, then one dedupe sweep.
func csr(n int, us, vs []uint32) *graph {
	g := &graph{n: n, offs: make([]uint64, n+1), nbrs: make([]uint64, len(us))}
	pos := make([]uint64, n+1) // next slot in byNbr for each neighbour
	for e := range us {
		pos[vs[e]+1]++
		g.offs[us[e]+1]++
	}
	for v := 1; v <= n; v++ {
		pos[v] += pos[v-1]
		g.offs[v] += g.offs[v-1]
	}
	byNbr := make([]uint32, len(us)) // edge ids ordered by neighbour
	for e, v := range vs {
		byNbr[pos[v]] = uint32(e)
		pos[v]++
	}
	// The stable scatter by source leaves g.offs[u] where u's list ends.
	for _, e := range byNbr {
		g.nbrs[g.offs[us[e]]] = uint64(vs[e])
		g.offs[us[e]]++
	}
	k, lo := uint64(0), uint64(0)
	for u := 0; u < n; u++ {
		hi, prev := g.offs[u], ^uint64(0)
		g.offs[u] = k
		for _, v := range g.nbrs[lo:hi] {
			if v != prev {
				g.nbrs[k], prev = v, v
				k++
			}
		}
		lo = hi
	}
	g.offs[n] = k
	g.nbrs = g.nbrs[:k]
	return g
}

// graphScale maps a workload scale to (vertices, average degree).
func graphScale(scale int) (int, int) {
	switch {
	case scale <= 0:
		return 256, 6 // tiny: unit tests
	case scale == 1:
		return 8192, 10 // benchmark default
	default:
		return 8192 * scale, 10
	}
}
