package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false}, {1000, 99, true},
		{99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true},
		{0, 50, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok {
			t.Errorf("p%g of %d samples: ok=%v, want %v", c.p, c.n, ok, c.ok)
		}
		if ok && v != math.Ceil(c.p/100*float64(c.n)) {
			t.Errorf("p%g of %d samples = %v, want the nearest rank", c.p, c.n, v)
		}
	}
}

func TestBatchPercentileIsMedianOfBatches(t *testing.T) {
	batch := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	o := newOutcome()
	o.setBatchPct("hit_ms_p99", [][]float64{batch(1000, 1), batch(1000, 9), batch(1000, 2)}, 99)
	if v := o.metrics["hit_ms_p99"]; v != 2 || len(o.problems) != 0 {
		t.Fatalf("got %v (problems %v), want the median batch's p99, 2", v, o.problems)
	}
	if w := windows(batch(3500, 1), 1200); len(w) != 2 || len(w[0]) != 1200 || len(w[1]) != 2300 {
		t.Fatalf("3500 samples in windows of 1200: got %d windows", len(w))
	}
	o = newOutcome()
	o.setBatchPct("hit_ms_p99", [][]float64{batch(1000, 1), batch(999, 1)}, 99)
	if _, ok := o.metrics["hit_ms_p99"]; ok || len(o.problems) == 0 {
		t.Fatal("reported although one batch has fewer than 10 samples beyond its p99")
	}
}

func TestFailedSampleIsNeverReportedAsALatency(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 60; i++ {
		xs[i] = math.Inf(1)
	}
	if _, ok := percentile(xs, 50); ok {
		t.Fatal("p50 reported although failures sit at it")
	}
}

// TestRefusedAndFailedRequestsCount sends requests to a server that, like
// teasrvd, sends its X-Tea-* counters only with a 200. It answers one
// request right, refuses one (429), fails one (500), answers one with other
// bytes, and refuses one planned cold request.
func TestRefusedAndFailedRequestsCount(t *testing.T) {
	steps := []planStep{
		{Req: serveReq{Experiment: "fig5", Format: "json"}},
		{Req: serveReq{Experiment: "fig6", Format: "json"}},
		{Req: serveReq{Experiment: "fig7", Format: "json"}},
		{Req: serveReq{Experiment: "fig8", Format: "json"}},
		{Req: serveReq{Experiment: "fig6", Format: "csv"}, Cold: true},
	}
	exp := &expected{body: map[string][]byte{}, instr: map[string]uint64{}}
	for _, s := range steps {
		exp.body[s.Req.key()] = []byte("report " + s.Req.Experiment)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serveReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ok := func(body string) {
			w.Header().Set("X-Tea-Simulated", "0")
			w.Header().Set("X-Tea-Coalesced", "0")
			w.Write([]byte(body))
		}
		switch req.Experiment {
		case "fig5":
			ok("report fig5")
		case "fig6":
			http.Error(w, "busy", http.StatusTooManyRequests)
		case "fig7":
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			ok("another report")
		}
	}))
	defer srv.Close()

	var recs []reqRecord
	for _, s := range steps {
		recs = append(recs, post(context.Background(), srv.Client(), srv.URL, s, exp))
	}
	o := newOutcome()
	tl := tally(o, recs, exp)
	if o.attempted != 5 || o.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", o.attempted, o.failed)
	}
	infs := func(xs []float64) int {
		n := 0
		for _, v := range xs {
			if math.IsInf(v, 1) {
				n++
			}
		}
		return n
	}
	if len(tl.hit) != 4 || infs(tl.hit) != 3 {
		t.Fatalf("hit latencies %v: want 4 samples, 3 of them +Inf", tl.hit)
	}
	if len(tl.cold) != 1 || infs(tl.cold) != 1 {
		t.Fatalf("cold latencies %v: want the refused cold request as +Inf", tl.cold)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := servePlan(7, 600), servePlan(7, 600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed drew two request sequences")
	}
	if reflect.DeepEqual(a, servePlan(8, 600)) {
		t.Fatal("two seeds drew one request sequence")
	}
	budgets := map[uint64]bool{}
	for c := range a {
		for i, s := range a[c] {
			if s.Cold != a[1-c][i].Cold {
				t.Fatalf("step %d is cold in one client's sequence only", i)
			}
			if s.Pair {
				if a[1-c][i].Req.key() != s.Req.key() {
					t.Fatalf("pair at step %d differs between the clients", i)
				}
				if c == 1 {
					continue
				}
			}
			if !s.Cold {
				continue
			}
			if budgets[s.Req.MaxInstructions] {
				t.Fatalf("cold budget %d used twice", s.Req.MaxInstructions)
			}
			budgets[s.Req.MaxInstructions] = true
		}
	}
}

func TestSelfTimeIsDurationMinusChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (40 + 10), 2: 30 - 5, 3: 20, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}
