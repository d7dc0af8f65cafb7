package core

import (
	"fmt"
	"testing"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph/gen"
)

func BenchmarkCRRReduce(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 4, 1)
	for _, p := range []float64{0.5, 0.1} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (CRR{Seed: 1, Betweenness: centrality.Options{Samples: 128, Seed: 2}}).Reduce(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBM2Reduce(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	for _, p := range []float64{0.5, 0.1} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (BM2{}).Reduce(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCRRPhase2Only(b *testing.B) {
	// Isolate the rewiring loop's throughput: random importance skips the
	// betweenness computation entirely.
	g := gen.BarabasiAlbert(5000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (CRR{Seed: 1, Importance: ImportanceRandom}).Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomReduce(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Random{Seed: 1}).Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultDelta(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	res, err := (Random{Seed: 1}).Reduce(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Delta()
	}
}
