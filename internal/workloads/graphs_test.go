package workloads

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// naiveCSR is the reference layout csr must reproduce: each vertex's
// neighbours collected per vertex, sorted and deduplicated one by one.
func naiveCSR(n int, us, vs []uint32) (offs, nbrs []uint64) {
	adj := make([][]uint64, n)
	for e := range us {
		adj[us[e]] = append(adj[us[e]], uint64(vs[e]))
	}
	offs = []uint64{0}
	nbrs = []uint64{}
	for _, ns := range adj {
		slices.Sort(ns)
		nbrs = append(nbrs, slices.Compact(ns)...)
		offs = append(offs, uint64(len(nbrs)))
	}
	return offs, nbrs
}

// TestCSRMatchesNaive checks csr against the per-vertex sorted-unique
// reference on random edge lists: duplicate edges, self loops, isolated
// vertices, hubs, a single vertex and an empty edge list.
func TestCSRMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type tc struct {
		name   string
		n      int
		us, vs []uint32
	}
	cases := []tc{
		{name: "empty", n: 5},
		{name: "n=1 empty", n: 1},
		{name: "n=1 self loops", n: 1, us: []uint32{0, 0, 0}, vs: []uint32{0, 0, 0}},
		{name: "duplicates", n: 3, us: []uint32{2, 0, 2, 2, 0}, vs: []uint32{1, 1, 1, 0, 1}},
	}
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(300)
		m := r.Intn(4 * n)
		hub := uint32(r.Intn(n))
		used := 1 + r.Intn(n) // vertices at or above used stay isolated
		c := tc{name: "random", n: n}
		for e := 0; e < m; e++ {
			u, v := uint32(r.Intn(used)), uint32(r.Intn(used))
			switch r.Intn(4) {
			case 0:
				u = hub
			case 1:
				v = hub
			}
			c.us, c.vs = append(c.us, u), append(c.vs, v)
			if r.Intn(5) == 0 { // repeat the edge
				c.us, c.vs = append(c.us, u), append(c.vs, v)
			}
		}
		cases = append(cases, c)
	}
	for i, c := range cases {
		wantOffs, wantNbrs := naiveCSR(c.n, c.us, c.vs)
		g := csr(c.n, c.us, c.vs)
		if g.n != c.n || !reflect.DeepEqual(g.offs, wantOffs) || !slices.Equal(g.nbrs, wantNbrs) {
			t.Fatalf("case %d (%s, n=%d, %d edges): got offs %v nbrs %v, want offs %v nbrs %v",
				i, c.name, c.n, len(c.us), g.offs, g.nbrs, wantOffs, wantNbrs)
		}
	}
}
