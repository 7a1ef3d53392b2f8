package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/metric"
)

// MetricParallelOptions configures GreedyMetricFastParallelOpts.
type MetricParallelOptions struct {
	// Workers is the number of goroutines certifying skips concurrently;
	// 0 selects GOMAXPROCS. With Workers == 1 the scan is serial.
	Workers int
	// BatchSize fixes the number of sorted pairs examined per
	// certification round. 0 (the default) selects adaptive batching: the
	// width grows while batches certify cleanly and shrinks when too many
	// pairs fall through to the serial re-check.
	BatchSize int
	// Source overrides the candidate supply. The default is the streamed
	// weight-bucketed supply of NewMetricSource (grid-bucketed on
	// Euclidean metrics); any CandidateSource emitting all n(n-1)/2 pairs
	// in greedy scan order yields the identical spanner.
	Source CandidateSource
	// Materialize forces the classic materialize-then-sort supply (all
	// pairs built and globally sorted up front, O(n^2) memory before the
	// first greedy decision). It exists for benchmarks and comparison;
	// output is identical either way. Ignored when Source is set.
	Materialize bool
	// BucketPairs caps how many candidates the default streamed supply
	// holds materialized at once; <= 0 selects DefaultBucketPairs (scaled
	// up on very large instances). Ignored when Source is set or
	// Materialize is true.
	BucketPairs int
	// Hubs is the number of hub vertices of the hub-label certification
	// fast path, selected by ball-growth sampling (SelectMetricHubs); <= 0
	// selects DefaultHubs(n). The hub labels certify almost all of the
	// n(n-1)/2 pairs without a search, so a metric scan always runs with
	// them (unlike a graph scan, where <= 0 disables the oracle). Hub
	// decisions are exact-equivalent, so output is bit-identical for
	// every k.
	Hubs int
	// Stats, when non-nil, is filled with engine counters for ablations
	// and benchmarks.
	Stats *MetricParallelStats
	// Ctx, when non-nil, makes the build cancellable: cancellation is
	// checked at batch boundaries, inside the certification fan-out, and
	// before every serial decision, and a cancelled build returns the
	// clean prefix Result (Partial set) with a typed ErrCancelled.
	Ctx context.Context
	// Budget bounds the run's resources; see Budget. Degradation steps
	// land in Stats.Degradations.
	Budget Budget
	// Inject installs fault-injection hooks (see InjectionHooks); nil
	// hooks cost nothing. Exposed for the internal/chaos harness.
	Inject InjectionHooks
}

// MetricParallelStats reports how the metric scan spent its effort. The
// scan is the graph scan, so the counters are ParallelStats':
// HubSkips + CertifiedSkips + SerialSkips + Kept equals the number of
// pairs examined (n(n-1)/2).
type MetricParallelStats struct {
	ParallelStats
	// CachedSkips, ParallelRefreshes, SerialRefreshes, RefreshTouched and
	// RowsAllocated counted the work of the bound-row cache earlier
	// versions of the metric engine kept. The scan has no such cache, so
	// they always read 0; they remain for callers that still read them.
	CachedSkips       int
	ParallelRefreshes int
	SerialRefreshes   int
	RefreshTouched    int
	RowsAllocated     int
}

// GreedyMetricFastParallel computes the greedy t-spanner of a finite metric
// space with the batched scan of GreedyGraphParallel, run over the
// metric's complete graph: candidates come from the streamed
// weight-bucketed supply instead of a materialized, globally sorted pair
// list, certification is fanned out over `workers` goroutines (0 selects
// GOMAXPROCS), and the hub labels of DefaultHubs(n) ball-growth hubs
// certify most pairs without any search. The output — edge sequence,
// weight, and EdgesExamined — is deterministic (independent of workers,
// batching, bucketing, hubs, and scheduling) and bit-identical to
// GreedyMetricFastSerial's, because both realize the exact greedy decision
// for every pair; near-ties are decided by the one-sided reference search
// (see GreedyGraphParallel).
func GreedyMetricFastParallel(m metric.Metric, t float64, workers int) (*Result, error) {
	return GreedyMetricFastParallelOpts(m, t, MetricParallelOptions{Workers: workers})
}

// GreedyMetricFastParallelOpts is GreedyMetricFastParallel with explicit
// batching, supply, and hub controls; see MetricParallelOptions.
func GreedyMetricFastParallelOpts(m metric.Metric, t float64, opts MetricParallelOptions) (*Result, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	stats := opts.Stats
	if stats == nil {
		stats = &MetricParallelStats{}
	}
	*stats = MetricParallelStats{}
	n := m.N()
	if n <= 1 {
		return &Result{N: n, Stretch: t}, nil
	}
	hubs := opts.Hubs
	if hubs <= 0 {
		hubs = DefaultHubs(n)
	}
	return greedyScan(scanInput{
		n:          n,
		candidates: n * (n - 1) / 2,
		sorted:     func() []graph.Edge { return sortedPairs(m) },
		streamed:   func(bucketPairs int) CandidateSource { return NewMetricSource(m, bucketPairs) },
		selectHubs: func(k int) []int { return SelectMetricHubs(m, k) },
	}, t, ParallelOptions{
		Workers:     opts.Workers,
		BatchSize:   opts.BatchSize,
		Source:      opts.Source,
		Materialize: opts.Materialize,
		BucketPairs: opts.BucketPairs,
		Hubs:        hubs,
		Stats:       &stats.ParallelStats,
		Ctx:         opts.Ctx,
		Budget:      opts.Budget,
		Inject:      opts.Inject,
	})
}

// sortedPairs materializes all n(n-1)/2 interpoint distances of m as edges
// in the greedy scan order: non-decreasing weight, ties broken by endpoint
// ids. This is the classic supply the streamed sources replace; it remains
// the reference for the serial engine and the Materialize option.
func sortedPairs(m metric.Metric) []graph.Edge {
	n := m.N()
	pairs := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, graph.Edge{U: i, V: j, W: m.Dist(i, j)})
		}
	}
	graph.SortEdges(pairs)
	return pairs
}

// newBoundMatrix allocates the dense n x n upper-bound matrix of the
// serial reference engine: zero diagonal, +Inf (unknown) everywhere else,
// backed by one contiguous allocation.
func newBoundMatrix(n int) [][]float64 {
	flat := make([]float64, n*n)
	for i := range flat {
		flat[i] = graph.Inf
	}
	bound := make([][]float64, n)
	for i := range bound {
		bound[i] = flat[i*n : (i+1)*n : (i+1)*n]
		bound[i][i] = 0
	}
	return bound
}
