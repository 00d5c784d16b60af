package gk

import (
	"math/rand"
	"strconv"
	"testing"
)

func BenchmarkQuery(b *testing.B) {
	s := MustNew(0.001)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1_000_000; i++ {
		s.Insert(rng.Int63())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(int64(i%1_000_000 + 1))
	}
}

// BenchmarkInsertStep times a whole step of inserts and the Reset that ends
// it, at the engine's ε/8 with ε = 0.001, for the step sizes the benchmark
// workloads use.
func BenchmarkInsertStep(b *testing.B) {
	for _, n := range []int{1000, 20_000, 32_768, 40_000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			s := MustNew(0.001 / 8)
			vals := stepValues(n)
			for b.Loop() {
				for _, v := range vals {
					s.Insert(v)
				}
				s.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
		})
	}
}
