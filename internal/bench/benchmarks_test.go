package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// testing.B benchmarks over the greedy engines and their candidate
// supplies, small enough that CI's smoke step (-benchtime=1x) stays
// cheap while still compiling and exercising every engine/supply
// combination.

func benchMetric(b *testing.B, n int) metric.Metric {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	return metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
}

func BenchmarkGreedyMetricSerialMaterialized(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastSerial(m, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricStreamed(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallel(m, 1.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricMaterialized(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.MetricParallelOptions{Workers: 1, Materialize: true}
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricStreamedParallel(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallel(m, 1.5, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricPairSourceDrain(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := core.NewMetricSource(m, 0)
		for len(src.NextBatch(4096)) > 0 {
		}
	}
}

func BenchmarkIncrementalInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := gen.UniformPoints(rng, 240, 2)
	base := metric.MustEuclidean(pts[:220])
	union := metric.MustEuclidean(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := core.NewIncrementalMetric(base, 1.5, core.MetricParallelOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := inc.Insert(union); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyGraphStreamed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyi(rng, 200, 0.2, 0.5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyGraphParallel(g, 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricHubs(b *testing.B) {
	m := benchMetric(b, 220)
	opts := core.MetricParallelOptions{Workers: 1, Hubs: core.DefaultHubs(220)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyGraphHubs(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyi(rng, 300, 0.15, 0.5, 10)
	opts := core.ParallelOptions{Workers: 1, Hubs: core.DefaultHubs(300)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyGraphParallelOpts(g, 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalInsertCoalesced(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := gen.UniformPoints(rng, 240, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:200]), 1.5,
			core.MetricParallelOptions{Workers: 1, Hubs: 16})
		if err != nil {
			b.Fatal(err)
		}
		inc.SetPolicy(core.IncrementalPolicy{MinBatch: 8})
		for k := 201; k <= len(pts); k++ {
			if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
				b.Fatal(err)
			}
		}
		inc.Flush()
	}
}

// BenchmarkGraphReplay times one graph-mode flush against the rebuild it
// replaces, on a seeded Erdős–Rényi graph (n=4000, p=0.025, t=3, default
// hubs, 2 workers) with 64 random edges held out. Each iteration is one
// update with its flush: insert inserts the next held-out edge, and
// delete-accepted and delete-random delete a random accepted edge or a
// random surviving input edge. A fresh maintained spanner is built
// outside the timer every 64 updates, so every iteration starts from a
// comparable state. rebuild is one from-scratch build of the same input.
//
//	go test -run '^$' -bench GraphReplay -benchtime=16x ./internal/bench/
func BenchmarkGraphReplay(b *testing.B) {
	const n, held = 4000, 64
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyi(rng, n, 0.025, 0.5, 10)
	edges := g.EdgesCopy()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	holdout, kept := edges[:held], edges[held:]
	base := g.Subgraph(kept)
	opts := core.ParallelOptions{Workers: 2, Hubs: core.DefaultHubs(n)}

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyGraphParallelOpts(base, 3, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// replay times b.N updates, the k-th since the last fresh spanner made
	// by update(inc, k).
	replay := func(b *testing.B, update func(inc *core.IncrementalSpanner, k int) error) {
		var inc *core.IncrementalSpanner
		for i := 0; i < b.N; i++ {
			if i%held == 0 {
				b.StopTimer()
				var err error
				if inc, err = core.NewIncrementalGraph(base, 3, opts); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := update(inc, i%held); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("insert", func(b *testing.B) {
		replay(b, func(inc *core.IncrementalSpanner, k int) error {
			return inc.InsertEdges(holdout[k])
		})
	})
	b.Run("delete-accepted", func(b *testing.B) {
		pick := rand.New(rand.NewSource(7))
		replay(b, func(inc *core.IncrementalSpanner, _ int) error {
			res, err := inc.Result()
			if err != nil {
				return err
			}
			return inc.DeleteEdges(res.Edges[pick.Intn(len(res.Edges))])
		})
	})
	b.Run("delete-random", func(b *testing.B) {
		// kept is in shuffled order, so kept[k] is a random surviving edge.
		replay(b, func(inc *core.IncrementalSpanner, k int) error {
			return inc.DeleteEdges(kept[k])
		})
	})
}
