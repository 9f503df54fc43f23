package workloads

import "testing"

// BenchmarkBuild times one workload's program construction at the
// benchmark scale (input generation, native graph/table layout and code
// emission), the fixed cost every cold simulated cell pays before its
// first cycle. Run with `make bench`.
func BenchmarkBuild(b *testing.B) {
	for _, w := range All() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Build(1)
			}
		})
	}
}
