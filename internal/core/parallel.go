package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// ParallelOptions configures GreedyGraphParallelOpts.
type ParallelOptions struct {
	// Workers is the number of goroutines certifying skips concurrently;
	// 0 selects GOMAXPROCS. With Workers == 1 the engine degenerates to a
	// serial scan that still benefits from the bidirectional query
	// primitive.
	Workers int
	// BatchSize fixes the number of sorted edges examined per
	// certification round. 0 (the default) selects adaptive batching:
	// the width grows while batches certify cleanly and shrinks when too
	// many edges fall through to the serial re-check.
	BatchSize int
	// Source overrides the candidate supply. The default is the streamed
	// weight-bucketed supply of NewGraphEdgeSource; any CandidateSource
	// emitting all of g's edges in greedy scan order yields the identical
	// spanner.
	Source CandidateSource
	// Materialize forces the classic supply (one globally sorted O(m)
	// copy of the edge list, as GreedyGraph scans). Output is identical
	// either way. Ignored when Source is set.
	Materialize bool
	// BucketPairs caps how many candidates the default streamed supply
	// holds materialized at once; <= 0 selects DefaultBucketPairs (scaled
	// up on very large instances). Ignored when Source is set or
	// Materialize is true.
	BucketPairs int
	// Hubs enables the hub-label certification fast path: k hub vertices
	// are selected by the degree heuristic and their exact distance
	// arrays over the growing spanner are maintained incrementally
	// (HubOracle). Each candidate edge is first tested against the O(k)
	// hub upper bound (a certified skip) and lower bound (a certified
	// accept), and only edges neither bound decides pay a bidirectional
	// search. Hub decisions are exact-equivalent, so output stays
	// bit-identical for every k; <= 0 disables the oracle.
	Hubs int
	// Stats, when non-nil, is filled with engine counters for ablations
	// and benchmarks.
	Stats *ParallelStats
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

// ParallelStats reports how the batched engine spent its effort.
type ParallelStats struct {
	// Batches is the number of certification rounds.
	Batches int
	// CertifiedSkips counts edges whose skip was certified in parallel
	// against the frozen snapshot.
	CertifiedSkips int
	// SerialSkips counts edges that failed certification but were skipped
	// by the serial re-check (a path appeared within their own batch).
	SerialSkips int
	// Kept counts accepted edges.
	Kept int
	// PeakBucketPairs is the largest candidate bucket the streamed supply
	// held materialized at once (0 for materialized or custom supplies).
	PeakBucketPairs int
	// SupplyPasses counts the streamed supply's enumeration passes
	// (counting, subdivision, collection; 0 for materialized or custom
	// supplies).
	SupplyPasses int
	// FinalBatchSize is the adaptive batch width at the end of the scan.
	FinalBatchSize int
	// HubQueries / HubSkips count certification queries put to the hub
	// oracle and the skips it certified without any search. HubRelaxed is
	// the total number of hub-array entries the dirty-radius maintenance
	// re-relaxed — the oracle's whole upkeep cost, in vertices.
	HubQueries int
	HubSkips   int
	HubRelaxed int
	// HubAccepts counts accepts the hub lower bound decided without a
	// search (HubOracle.Separates): the labels proved no path within the
	// limit exists.
	HubAccepts int
	// Degradations logs, in order, each step the engine took down the
	// resource-budget ladder (supply streamed, batch width floored, hub
	// oracle dropped, ...). Empty for unbudgeted or in-budget runs. Every
	// logged step is output-invariant: it changes speed and memory, never
	// the spanner.
	Degradations []string
}

// Batch-width bounds for the adaptive policy.
const (
	minBatch = 32
	maxBatch = 8192
)

// initialBatch is the starting width of the adaptive policy, shared by the
// graph and metric engines: wide enough to feed every worker a few queries
// on the first round.
func initialBatch(workers int) int {
	b := minBatch
	if w := 4 * workers; w > b {
		b = w
	}
	return b
}

// adaptBatch is the shared width-update rule: survivors cost extra serial
// work on top of the batch's parallel certification, so the width grows
// while batches certify almost everything — wider batches amortize the
// worker fan-out — and shrinks when the snapshot goes stale too fast to
// certify.
func adaptBatch(batch, survivors, span int) int {
	switch {
	case survivors*4 <= span && batch < maxBatch:
		return batch * 2
	case survivors*2 > span && batch > minBatch:
		return batch / 2
	}
	return batch
}

// serialBatchStat is the FinalBatchSize reported by the workers==1 fast
// paths, which do not batch: the explicitly configured width when one was
// given, otherwise the whole scan.
func serialBatchStat(batchSize, scanLen int) int {
	if batchSize > 0 {
		return batchSize
	}
	return scanLen
}

// tieBand is the relative half-width of the near-tie band on an n-vertex
// graph. A float64 sum of at most n positive path weights lies within a
// relative (n-1)·2^-53 of the real path length, whatever the summation
// order, so two primitives adding the same path in different orders — the
// one-sided reference, the bidirectional search, a hub label sum or
// difference — can disagree on "d <= limit" only when d lies within a few
// such errors of limit. (n+2)·2^-50 covers the sum of those errors with
// room to spare; outside the band every primitive decides as the
// reference does.
func tieBand(n int) float64 { return float64(n+2) * 0x1p-50 }

// decideWithin answers the greedy decision "delta_h(u, v) <= limit?"
// exactly as GreedyGraph's one-sided search does, with the bidirectional
// decision search doing the work. The search runs at limit·(1+band): no
// path there is a certain no, a path within limit·(1−band) a certain yes,
// and a found length inside the band is decided again by the reference
// search itself. A limit of +Inf (a metric pair at infinite distance) is
// met by every pair, as GreedyMetricFastSerial's bound test decides it.
func decideWithin(search *graph.Searcher, h *graph.Graph, u, v int, limit float64) bool {
	if math.IsInf(limit, 1) {
		return true
	}
	band := tieBand(h.N())
	d, found := search.BidirDecideWithin(h, u, v, limit*(1+band))
	if !found || d <= limit*(1-band) {
		return found
	}
	_, within := search.DistanceWithin(h, u, v, limit)
	return within
}

// GreedyGraphParallel computes the greedy t-spanner of g like GreedyGraph,
// but fans the per-edge distance queries out over `workers` goroutines
// (0 selects GOMAXPROCS). The output — edge sequence, weight, and
// EdgesExamined — is deterministic (independent of workers, batching, and
// scheduling) and identical to GreedyGraph's, exact and near-ulp ties
// included. The fast primitives (hub label sums and differences, the
// bidirectional decision search) add path weights in other orders than
// GreedyGraph's one-sided search, so they decide only outside the
// near-tie band (limit·(1−δ), limit·(1+δ)] with δ = tieBand(n); any bound
// or found path length inside the band is decided again by the one-sided
// reference search (Searcher.DistanceWithin), which is GreedyGraph's own
// decision.
//
// The engine scans the sorted edge list in batches. Within a batch, every
// edge (u, v) is tested concurrently against the *frozen* spanner snapshot
// H0 taken at the batch boundary: if delta_{H0}(u, v) <= t*w(u, v) the skip
// is certified once and for all, because the sequential algorithm would
// test the edge against a superset of H0 and spanner distances only shrink
// as edges are added. Edges the snapshot cannot certify are re-checked
// serially, in exact greedy order, against the live spanner — so every
// accept/reject decision matches the sequential scan bit for bit. Distance
// queries use the bounded bidirectional decision search
// (Searcher.BidirDecideWithin), which explores two balls of radius ~t*w/2
// instead of one of radius t*w and stops at the first path within t*w.
// With hubs, the label upper bound certifies skips and the label lower
// bound certifies accepts before any search.
func GreedyGraphParallel(g *graph.Graph, t float64, workers int) (*Result, error) {
	return GreedyGraphParallelOpts(g, t, ParallelOptions{Workers: workers})
}

// GreedyGraphParallelOpts is GreedyGraphParallel with explicit batching
// and supply controls; see ParallelOptions.
func GreedyGraphParallelOpts(g *graph.Graph, t float64, opts ParallelOptions) (*Result, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	return greedyScan(scanInput{
		n:          g.N(),
		candidates: g.M(),
		sorted:     g.SortedEdges,
		streamed:   func(bucketPairs int) CandidateSource { return NewGraphEdgeSource(g, bucketPairs) },
		selectHubs: func(k int) []int { return SelectGraphHubs(g, k) },
	}, t, opts)
}

// scanInput is what a fresh batched scan needs to know about its input:
// the vertex and candidate counts, the two default candidate supplies,
// and the hub selection. A weighted graph and a metric space (the
// complete graph on its points) differ only here.
type scanInput struct {
	n, candidates int
	// sorted returns every candidate in greedy scan order (the
	// Materialize supply); streamed returns the weight-bucketed supply.
	sorted     func() []graph.Edge
	streamed   func(bucketPairs int) CandidateSource
	selectHubs func(k int) []int
}

// greedyScan runs one fresh batched scan of in under opts, the build
// behind both GreedyGraphParallelOpts and GreedyMetricFastParallelOpts.
// The byte budget is applied to the supply and the hub count before
// anything is allocated.
func greedyScan(in scanInput, t float64, opts ParallelOptions) (*Result, error) {
	stats := opts.Stats
	if stats == nil {
		stats = &ParallelStats{}
	}
	*stats = ParallelStats{}
	env := newScanEnv(opts.Ctx, opts.Budget, opts.Inject, stats.degradationSink())
	src := opts.Source
	if src == nil {
		materialize, bucketPairs := opts.Materialize, opts.BucketPairs
		if env != nil {
			resolveSupplyBudget(opts.Budget, env.record, &materialize, &bucketPairs, in.candidates)
		}
		if materialize {
			src = NewMaterializedSource(in.sorted())
		} else {
			src = in.streamed(bucketPairs)
		}
	}
	res := &Result{N: in.n, Stretch: t}
	h := graph.New(in.n)
	sc := &graphScan{
		t:       t,
		workers: opts.Workers,
		h:       h,
		res:     res,
		stats:   stats,
		env:     env,
	}
	hubs := opts.Hubs
	if env != nil {
		resolveHubBudget(opts.Budget, env.record, &hubs, in.n)
	}
	if hubs > 0 {
		sc.oracle = NewHubOracle(in.selectHubs(hubs), h, 0)
	}
	return res, sc.run(src, opts.BatchSize)
}

// graphScan bundles the state of one batched greedy scan — of a graph's
// edges or of a metric's point pairs: the partial spanner and the result
// being accumulated. A fresh build starts
// it empty; the incremental engine starts it at the preserved prefix of a
// previous scan and drains only the tail of the candidate stream.
type graphScan struct {
	t       float64
	workers int // <= 0 selects GOMAXPROCS
	h       *graph.Graph
	// oracle, when non-nil, is the hub-label certification fast path,
	// consulted only from the scan's serial sections.
	oracle *HubOracle
	res    *Result
	stats  *ParallelStats
	// env, when non-nil, carries the run's cancellation, budget, and
	// fault-injection state; nil reproduces the pre-robustness engine.
	env *scanEnv
}

// run drains src through the batched-certification scan, appending every
// accept to the scan's result; batchSize <= 0 selects adaptive batching.
// On clean completion the returned error is nil and any candidates a
// cut-resumed source suppressed are folded into EdgesExamined. On
// cancellation, deadline, captured panic, or injected fault the scan
// stops committing immediately: the result holds the exact decided
// prefix of the reference edge sequence (Partial set) and a typed error
// is returned. Every worker is joined before any batch outcome is
// inspected, so no goroutine outlives run on any path, and no decision
// derived from a possibly-truncated search is ever committed (the
// cancellation predicates are monotone, so "not cancelled after the
// join" proves no search in the joined batch was cut short).
func (sc *graphScan) run(src CandidateSource, batchSize int) (err error) {
	t, h, res, stats, env := sc.t, sc.h, sc.res, sc.stats, sc.env
	oracle := sc.oracle
	defer func() {
		if p := recover(); p != nil {
			err = panicErr(p)
		}
		if err != nil {
			res.Partial = true
		}
	}()
	workers := sc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := h.N()
	band := tieBand(n)
	serial := graph.NewSearcher(n)
	stop := env.stopFn()
	serial.SetStop(stop)
	relaxed0 := 0
	if oracle != nil {
		relaxed0 = oracle.Relaxed()
	}

	// hubCertify answers one certification query from the hub labels; a
	// hit skips the edge without any search, exactly as the reference
	// scan would (the hub bound dominates the spanner distance). A bound
	// inside the near-tie band is left to decideWithin, which owns the
	// tie rule.
	hubCertify := func(u, v int, limit float64) bool {
		stats.HubQueries++
		if _, ok := oracle.Certify(u, v, limit*(1-band)); ok {
			stats.HubSkips++
			return true
		}
		return false
	}
	accept := func(e graph.Edge) {
		h.MustAddEdge(e.U, e.V, e.W)
		res.Edges = append(res.Edges, e)
		res.Weight += e.W
		if oracle != nil {
			oracle.OnAccept(e)
		}
		stats.Kept++
	}
	finish := func() {
		if bs, ok := src.(*bucketedSource); ok {
			stats.PeakBucketPairs = bs.PeakBucket()
			stats.SupplyPasses = bs.Passes()
			res.EdgesExamined += bs.Skipped()
		}
		if oracle != nil { // else checkBudget recorded it at the drop
			stats.HubRelaxed = oracle.Relaxed() - relaxed0
		}
	}
	// checkBudget walks the in-scan degradation ladder at batch
	// boundaries under a byte budget: floor the batch width (sticky, via
	// the env's width cap), then drop the hub oracle, then record
	// exhaustion once. Every step is output-invariant.
	checkBudget := func(batch int) int {
		if env == nil || env.budget.MaxBytes <= 0 {
			return batch
		}
		est := searcherPoolBytes(workers, n) + int64(batch)*edgeBytes
		if bs, ok := src.(*bucketedSource); ok {
			est += int64(bs.PeakBucket()) * edgeBytes
		}
		if oracle != nil {
			est += hubBytes(len(oracle.Hubs()), n)
		}
		switch {
		case est <= env.budget.MaxBytes:
		case batch > minBatch:
			batch = minBatch
			env.budget.MaxBatchWidth = minBatch
			env.record(fmt.Sprintf("batch width floored to %d under byte budget", minBatch))
		case oracle != nil:
			env.record(fmt.Sprintf("hub oracle (%d hubs) dropped under byte budget", len(oracle.Hubs())))
			stats.HubRelaxed = oracle.Relaxed() - relaxed0
			oracle = nil
		case !env.exhausted:
			env.exhausted = true
			env.record("byte budget exhausted; no degradation steps remain")
		}
		return batch
	}

	if workers == 1 {
		// Serial fast path: no snapshot pass, every edge tested once
		// against the live spanner, exactly like GreedyGraph but with the
		// bidirectional primitive; the supply is still streamed.
		// Cancellation is checked at batch boundaries and after each
		// search, before the decision it feeds is committed, so the
		// result is always an exact decided prefix.
		chunk := env.clampBatch(batchSize)
		if chunk <= 0 {
			chunk = env.clampBatch(maxBatch)
		}
		for batchNo := 0; ; batchNo++ {
			if cerr := env.cancelled(); cerr != nil {
				return cerr
			}
			env.onBatch(batchNo)
			edges := src.NextBatch(chunk)
			if len(edges) == 0 {
				break
			}
			for _, e := range edges {
				env.onCertify(e)
				if oracle != nil && hubCertify(e.U, e.V, t*e.W) {
					res.EdgesExamined++
					continue
				}
				var within bool
				if oracle != nil && oracle.Separates(e.U, e.V, t*e.W) {
					stats.HubAccepts++
				} else {
					within = decideWithin(serial, h, e.U, e.V, t*e.W)
				}
				if env.active() {
					if cerr := env.cancelled(); cerr != nil {
						return cerr
					}
				}
				if within {
					stats.SerialSkips++
					res.EdgesExamined++
					continue
				}
				accept(e)
				res.EdgesExamined++
			}
		}
		stats.FinalBatchSize = serialBatchStat(batchSize, res.EdgesExamined)
		finish()
		return nil
	}

	pool := make([]*graph.Searcher, workers)
	for i := range pool {
		pool[i] = graph.NewSearcher(n)
		pool[i].SetStop(stop)
	}
	// errs holds one slot per worker: a captured panic or a cancellation
	// bail-out. Slots are written by their owning worker only and read
	// after the join, so they need no locking.
	errs := make([]error, workers)
	var certified, hubbed []bool

	batch := env.clampBatch(batchSize)
	adaptive := batchSize <= 0
	if adaptive {
		batch = env.clampBatch(initialBatch(workers))
	}

	for batchNo := 0; ; batchNo++ {
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}
		env.onBatch(batchNo)
		edges := src.NextBatch(batch)
		if len(edges) == 0 {
			break
		}
		stats.Batches++
		if len(edges) > len(certified) {
			certified = make([]bool, len(edges))
			hubbed = make([]bool, len(edges))
		}

		// Serial pre-pass: certify what the hub labels already cover, so
		// only the remaining edges pay a search in phase 1. (hubbed marks
		// are only read under oracle != nil, so a mid-scan budget drop of
		// the oracle cannot leak a previous batch's marks.)
		if oracle != nil {
			for i, e := range edges {
				hubbed[i] = hubCertify(e.U, e.V, t*e.W)
			}
		}

		// Phase 1: certify skips in parallel against the frozen h. The
		// pre-pass left the hub rows exact on h, so an edge they separate
		// needs no search: no path within the limit exists in h. The
		// workers only read h, the rows and the pre-pass's hubbed marks,
		// and write disjoint certified[i] and errs[w] slots, so the only
		// synchronization needed is the join. A worker converts its own
		// panic into a typed error and bails out early on cancellation;
		// either way it reaches wg.Done, so the pool always drains.
		var wg sync.WaitGroup
		span := len(edges)
		chunk := (span + workers - 1) / workers
		for w := 0; w < workers && w*chunk < span; w++ {
			start, end := w*chunk, (w+1)*chunk
			if end > span {
				end = span
			}
			wg.Add(1)
			go func(w int, search *graph.Searcher, start, end int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[w] = panicErr(p)
					}
				}()
				for i := start; i < end; i++ {
					if oracle != nil && hubbed[i] {
						continue
					}
					if env.active() {
						if cerr := env.cancelled(); cerr != nil {
							errs[w] = cerr
							return
						}
					}
					e := edges[i]
					env.onCertify(e)
					if oracle != nil && oracle.separates(e.U, e.V, t*e.W, band) {
						certified[i] = false
						continue
					}
					//spannerlint:ignore ctxcommit the post-join cancelled() re-check discards every phase-1 certificate on truncation (monotone predicate)
					within := decideWithin(search, h, e.U, e.V, t*e.W)
					certified[i] = within
				}
			}(w, pool[w], start, end)
		}
		wg.Wait()
		if werr := firstWorkerErr(errs); werr != nil {
			return werr
		}
		// Abandon the whole batch on cancellation: nothing was committed
		// yet, and phase-1 certificates may rest on truncated searches.
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}

		// Phase 2: replay the uncertified survivors serially in greedy
		// order against the live spanner. A survivor may still be skipped
		// here when an edge accepted earlier in this same batch created a
		// path for it — exactly as the sequential scan would decide. The
		// hub rows are synced to the live spanner and tried as a lower
		// bound before any search. Each candidate is folded into
		// EdgesExamined as its decision commits, so an abort mid-batch
		// leaves the exact decided count.
		survivors := 0
		for i, e := range edges {
			if oracle != nil && hubbed[i] {
				res.EdgesExamined++
				continue // counted as a HubSkip in the pre-pass
			}
			if certified[i] {
				stats.CertifiedSkips++
				res.EdgesExamined++
				continue
			}
			survivors++
			env.onCertify(e)
			var within bool
			if oracle != nil && oracle.Separates(e.U, e.V, t*e.W) {
				stats.HubAccepts++
			} else {
				within = decideWithin(serial, h, e.U, e.V, t*e.W)
			}
			if env.active() {
				if cerr := env.cancelled(); cerr != nil {
					return cerr
				}
			}
			if within {
				stats.SerialSkips++
				res.EdgesExamined++
				continue
			}
			accept(e)
			res.EdgesExamined++
		}

		// Adapt only on full-width rounds: a batch truncated at a bucket
		// boundary says nothing about snapshot staleness, the signal the
		// policy tracks.
		if adaptive && span == batch {
			batch = env.clampBatch(adaptBatch(batch, survivors, span))
		}
		batch = checkBudget(batch)
	}
	stats.FinalBatchSize = batch
	finish()
	return nil
}
