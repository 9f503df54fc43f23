package main

import (
	"math"
	"math/rand"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail figure resting on fewer samples is one outlier's value.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether it
// may be reported, that is, whether at least minBeyond samples lie beyond
// it. Failed operations enter xs as +Inf, so they count as missing every
// latency limit instead of vanishing from the sample.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v := s[rank-1]
	return v, !math.IsInf(v, 0)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windows cuts xs into consecutive windows of n samples, the last one
// taking the remainder, so that each holds at least n (or all of xs when it
// is shorter).
func windows(xs []float64, n int) [][]float64 {
	var out [][]float64
	for len(xs) >= 2*n {
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	return append(out, xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// newRand derives a deterministic generator from the run seed and a stream
// label, so each workload's draws do not shift when another's change.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}
