package gk

import (
	"math/rand"
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
