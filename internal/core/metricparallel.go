package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/metric"
)

// MetricParallelOptions configures GreedyMetricFastParallelOpts.
type MetricParallelOptions struct {
	// Workers is the number of goroutines refreshing bound rows
	// concurrently; 0 selects GOMAXPROCS. With Workers == 1 the engine
	// degenerates to the serial cached-bound scan (GreedyMetricFastSerial
	// with reusable search scratch and the sparse row store).
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
	// Hubs enables the hub-label certification fast path: k hub vertices
	// are selected by ball-growth sampling and their exact distance
	// arrays over the growing spanner are maintained incrementally
	// (HubOracle). Each certification query is answered first by the
	// O(k) hub upper bound; a hub-certified skip is exact-equivalent, so
	// output stays bit-identical for every k. With hubs on, row
	// refreshes are additionally bounded to a multiple of the query
	// radius (hubRefreshRadiusFactor) — sound because partially covered
	// rows are still upper bounds, and cheap because the hub labels
	// absorb the long-range certifications bounded rows no longer cache.
	// <= 0 disables the oracle and reproduces the pre-hub engine's
	// behavior (and exact Dijkstra schedule) verbatim.
	Hubs int
	// Stats, when non-nil, is filled with engine counters for ablations
	// and benchmarks.
	Stats *MetricParallelStats
	// Ctx, when non-nil, makes the build cancellable: cancellation is
	// checked at batch boundaries, inside the row-refresh fan-out, and
	// before every serial decision, and a cancelled build returns the
	// clean prefix Result (Partial set) with a typed ErrCancelled.
	Ctx context.Context
	// Budget bounds the run's resources; see Budget. Degradation steps
	// land in Stats.Degradations.
	Budget Budget
	// Inject installs fault-injection hooks (see InjectionHooks); nil
	// hooks cost nothing. Exposed for the internal/chaos harness.
	Inject InjectionHooks
	// GuardRows arms per-row checksums on the sparse bound store: every
	// read-modify of a row and every skip certified from a cached bound
	// first verifies the row's checksum, so a corrupted entry (a bit
	// flip, simulated or real) surfaces as a typed ErrCorruptState
	// instead of silently certifying a wrong skip. Off by default; the
	// guarded paths cost O(n) per row operation.
	GuardRows bool
}

// MetricParallelStats reports how the batched metric engine spent its
// effort. CachedSkips + HubSkips + CertifiedSkips + SerialSkips + Kept
// equals the number of pairs examined (n(n-1)/2).
type MetricParallelStats struct {
	// Batches is the number of certification rounds.
	Batches int
	// CachedSkips counts pairs certified by an already-cached bound, with
	// no Dijkstra at all.
	CachedSkips int
	// CertifiedSkips counts pairs certified by a parallel row refresh
	// against the frozen snapshot.
	CertifiedSkips int
	// SerialSkips counts pairs that survived both cache and snapshot
	// certification but were skipped by the exact serial re-check.
	SerialSkips int
	// Kept counts accepted edges.
	Kept int
	// ParallelRefreshes counts bound rows recomputed concurrently against
	// frozen snapshots.
	ParallelRefreshes int
	// SerialRefreshes counts rows recomputed by the ordered re-check
	// against the live spanner.
	SerialRefreshes int
	// RefreshTouched is the total number of vertices all row refreshes
	// reached — the engine's exact-Dijkstra work volume. Full-row
	// refreshes touch ~n vertices each; the bounded refreshes of the
	// hub-label fast path touch only the query ball.
	RefreshTouched int
	// RowsAllocated counts distinct bound rows the sparse store
	// materialized; n minus RowsAllocated rows were never refreshed and
	// cost no memory at all.
	RowsAllocated int
	// PeakBucketPairs is the largest candidate bucket the streamed supply
	// held materialized at once (0 for materialized or custom supplies).
	PeakBucketPairs int
	// SupplyPasses counts the streamed supply's enumeration passes
	// (counting, subdivision, collection; 0 for materialized or custom
	// supplies).
	SupplyPasses int
	// FinalBatchSize is the adaptive batch width at the end of the scan.
	FinalBatchSize int
	// HubQueries / HubSkips count certification queries that reached the
	// hub oracle (past the row cache) and the skips it certified without
	// any Dijkstra. HubRelaxed is the total number of hub-array entries
	// the dirty-radius maintenance re-relaxed — the whole upkeep cost of
	// the oracle, in vertices.
	HubQueries int
	HubSkips   int
	HubRelaxed int
	// Degradations logs, in order, each step the engine took down the
	// resource-budget ladder (supply streamed, batch width floored, hub
	// oracle dropped, cached rows dropped, ...). Empty for unbudgeted or
	// in-budget runs. Every logged step is output-invariant.
	Degradations []string
}

// boundStore is the sparse replacement for the dense n x n float64 bound
// matrix: rows are allocated on first refresh, so vertices whose rows the
// scan never recomputes cost nothing, and entries are 16-bit (bfloat16)
// upper bounds rounded toward +Inf — 4x denser than float64 per touched
// row, 8x-plus for untouched ones. A rounded-up upper bound is still an
// upper bound, and the engine decides every non-certified pair with an
// exact float64 Dijkstra distance, so the lossy cache can only affect
// which pairs reach the exact re-check (a sub-percent wider refresh
// shell), never the decision itself. The store lives for one scan: every
// bound in it was proven on a prefix of that scan's growing spanner.
type boundStore struct {
	rows [][]uint16
	// guard arms per-row checksums (GuardRows): sums[u] is the FNV-1a
	// digest of row u, recomputed after every legitimate write and
	// verified before any read-modify of the row and before any skip is
	// certified from its cached bounds. A write that bypasses the store
	// (a bit flip) therefore surfaces as ErrCorruptState at the next
	// guarded access instead of silently certifying a wrong skip.
	// Verify-before-fold ordering matters: folding first and recomputing
	// the digest would launder the corruption into a valid checksum.
	guard bool
	sums  []uint64
}

// inf16 is +Inf in the bfloat16 encoding (high 16 bits of float32 +Inf).
const inf16 = 0x7F80

func newBoundStore(n int) *boundStore {
	return &boundStore{rows: make([][]uint16, n)}
}

// enc16up encodes a non-negative float64 as the bfloat16 (high half of
// float32) upper bound: the encoded value decodes to >= x. For
// non-negative floats the bit pattern is monotone in the value, so uint16
// comparisons order the encoded bounds correctly.
func enc16up(x float64) uint16 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	bits := math.Float32bits(f)
	h := uint16(bits >> 16)
	if bits&0xFFFF != 0 {
		h++ // truncation dropped precision; 0x7F7F+1 lands on +Inf
	}
	return h
}

// dec16 decodes a bfloat16 bound back to float64.
func dec16(h uint16) float64 {
	return float64(math.Float32frombits(uint32(h) << 16))
}

// get returns the best cached upper bound on delta_H(u, v), +Inf when
// neither endpoint's row is materialized. Reading both rows subsumes the
// dense matrix's symmetric mirror writes.
func (b *boundStore) get(u, v int) float64 {
	hu, hv := uint16(inf16), uint16(inf16)
	if ru := b.rows[u]; ru != nil {
		hu = ru[v]
	}
	if rv := b.rows[v]; rv != nil {
		hv = rv[u]
	}
	if hv < hu {
		hu = hv
	}
	return dec16(hu)
}

// row returns u's bound row, materializing it (all +Inf, zero diagonal) on
// first use. Concurrent calls for distinct u are safe: each row slot is
// written by exactly one owner and no shared counter is touched (countRows
// tallies rows after the fact), so this stays data-race-free.
func (b *boundStore) row(u int) []uint16 {
	ru := b.rows[u]
	if ru == nil {
		ru = make([]uint16, len(b.rows))
		for i := range ru {
			ru[i] = inf16
		}
		ru[u] = 0
		b.rows[u] = ru
		if b.guard {
			// The slot's digest, like the slot, has exactly one owner.
			b.sums[u] = sumRow(ru)
		}
	}
	return ru
}

// countRows counts the materialized rows (called from the serial
// section, after any concurrent refreshes have joined).
func (b *boundStore) countRows() int {
	allocated := 0
	for _, r := range b.rows {
		if r != nil {
			allocated++
		}
	}
	return allocated
}

// setGuard arms the per-row checksums, digesting any rows already
// materialized. Safe only from serial sections.
func (b *boundStore) setGuard() {
	b.guard = true
	b.sums = make([]uint64, len(b.rows))
	for u, ru := range b.rows {
		if ru != nil {
			b.sums[u] = sumRow(ru)
		}
	}
}

// sumRow is the deterministic FNV-1a digest of one bound row.
func sumRow(row []uint16) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range row {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// verifyRow checks u's checksum in guard mode; a mismatch means the row
// no longer matches what was proven into it.
func (b *boundStore) verifyRow(u int) error {
	if !b.guard || b.rows[u] == nil {
		return nil
	}
	if sumRow(b.rows[u]) != b.sums[u] {
		return fmt.Errorf("%w: bound row %d fails its checksum", ErrCorruptState, u)
	}
	return nil
}

// verifyPair guards a skip about to be certified from cached bounds: both
// endpoint rows (the two sources get consults) must pass their checksums.
func (b *boundStore) verifyPair(u, v int) error {
	if !b.guard {
		return nil
	}
	if err := b.verifyRow(u); err != nil {
		return err
	}
	return b.verifyRow(v)
}

// clear drops every cached row (the budget ladder's last metric-side
// step); the cache is only an accelerator, so dropping it cannot change
// any decision.
func (b *boundStore) clear() {
	for u := range b.rows {
		b.rows[u] = nil
		if b.guard {
			b.sums[u] = 0
		}
	}
}

// foldRow folds an exact distance row into u's cached bound row,
// tightening entries that improved (entries proven on shorter prefixes
// are looser, hence still valid upper bounds). In guard mode the row is
// verified before the fold — never after, which would launder a corrupted
// entry into a freshly valid checksum — and re-digested after.
func (b *boundStore) foldRow(u int, dist []float64) error {
	ru := b.row(u)
	if err := b.verifyRow(u); err != nil {
		return err
	}
	for v, d := range dist {
		if f := enc16up(d); f < ru[v] {
			ru[v] = f
		}
	}
	if b.guard {
		b.sums[u] = sumRow(ru)
	}
	return nil
}

// set records an accepted edge's weight (or a hub-certified bound) as a
// bound on its endpoints. Guard mode verifies before the write, exactly as
// foldRow does.
func (b *boundStore) set(u, v int, w float64) error {
	ru := b.row(u)
	if err := b.verifyRow(u); err != nil {
		return err
	}
	if f := enc16up(w); f < ru[v] {
		ru[v] = f
	}
	if b.guard {
		b.sums[u] = sumRow(ru)
	}
	return nil
}

// rowCorrupter is the Corrupter handle the metric engines hand to the
// OnBatch injection hook: FlipRowBit flips one bit of a materialized
// bound-row entry without updating the row's checksum — the simulated
// memory fault the guard checksums exist to catch.
type rowCorrupter struct{ b *boundStore }

func (c rowCorrupter) FlipRowBit(u, v int, bit uint) bool {
	if u < 0 || u >= len(c.b.rows) || c.b.rows[u] == nil || v < 0 || v >= len(c.b.rows[u]) {
		return false
	}
	c.b.rows[u][v] ^= 1 << (bit % 16)
	return true
}

// GreedyMetricFastParallel computes the greedy t-spanner of a finite metric
// space like GreedyMetricFastSerial — cached distance bounds in the spirit
// of Bose et al. [BCF+10] — but refreshes the cached bound rows
// concurrently over `workers` goroutines (0 selects GOMAXPROCS) and pulls
// candidates from the streamed weight-bucketed supply instead of a
// materialized, globally sorted pair list. The output — edge sequence,
// weight, and EdgesExamined — is deterministic (independent of workers,
// batching, bucketing, and scheduling) and bit-identical to
// GreedyMetricFastSerial's, because both engines realize the exact greedy
// decision for every pair.
//
// The engine scans the supplied pairs in batches. A serial pre-pass
// certifies every pair the cached bounds already cover. The remaining
// pairs' source rows are then refreshed concurrently with full Dijkstra
// runs against the *frozen* spanner snapshot H0 taken at the batch
// boundary; a bound proven on H0 stays a valid upper bound for every later
// spanner H ⊇ H0 because adding edges only shrinks distances, so a skip it
// certifies is final. Each row belongs to exactly one worker and workers
// write nothing else, so the only synchronization is the join. Pairs the
// snapshot cannot certify are re-decided serially, in exact greedy order,
// on exact float64 distances against the live spanner — exactly the serial
// algorithm's decision procedure.
func GreedyMetricFastParallel(m metric.Metric, t float64, workers int) (*Result, error) {
	return GreedyMetricFastParallelOpts(m, t, MetricParallelOptions{Workers: workers})
}

// GreedyMetricFastParallelOpts is GreedyMetricFastParallel with explicit
// batching and supply controls; see MetricParallelOptions.
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
	res := &Result{N: n, Stretch: t}
	if n <= 1 {
		return res, nil
	}
	env := newScanEnv(opts.Ctx, opts.Budget, opts.Inject, func(step string) {
		stats.Degradations = append(stats.Degradations, step)
	})
	src := opts.Source
	if src == nil {
		materialize, bucketPairs := opts.Materialize, opts.BucketPairs
		if env != nil {
			resolveSupplyBudget(opts.Budget, env.record, &materialize, &bucketPairs, n*(n-1)/2)
		}
		if materialize {
			src = NewMaterializedSource(sortedPairs(m))
		} else {
			src = NewMetricSource(m, bucketPairs)
		}
	}
	h := graph.New(n)
	sc := &metricScan{
		t:       t,
		workers: opts.Workers,
		h:       h,
		bound:   newBoundStore(n),
		res:     res,
		stats:   stats,
		env:     env,
	}
	if opts.GuardRows {
		sc.bound.setGuard()
	}
	hubs := opts.Hubs
	if env != nil {
		resolveHubBudget(opts.Budget, env.record, &hubs, n)
	}
	if hubs > 0 {
		sc.oracle = NewHubOracle(SelectMetricHubs(m, hubs), h, 0)
	}
	return res, sc.run(src, opts.BatchSize)
}

// metricScan bundles the state of one batched cached-bound greedy scan:
// the partial spanner, the sparse bound store, and the result being
// accumulated.
type metricScan struct {
	t       float64
	workers int // <= 0 selects GOMAXPROCS
	h       *graph.Graph
	bound   *boundStore
	// oracle, when non-nil, is the hub-label certification fast path; it
	// is consulted only from the scan's serial sections, bounds the row
	// refreshes to hubRefreshRadiusFactor times the query radius, and
	// pre-seeds the bound rows it certifies through.
	oracle *HubOracle
	res    *Result
	stats  *MetricParallelStats
	// env, when non-nil, carries the run's cancellation, budget, and
	// fault-injection state; nil reproduces the pre-robustness engine.
	env *scanEnv
}

// hubRefreshRadiusFactor scales the bounded row refreshes of a hub-enabled
// metric scan: a pair decision only needs distances within t*w, and a
// radius a factor above that keeps the row useful for the following pairs
// of similar scale while staying far cheaper than a full-graph Dijkstra.
// Partially covered rows are sound (uncovered entries stay +Inf, a valid
// upper bound); the hub labels absorb the long-range certifications the
// bounded rows no longer cache.
const hubRefreshRadiusFactor = 2

// run drains src through the batched-certification scan, appending every
// accept to the scan's result; batchSize <= 0 selects adaptive batching.
// On clean completion the returned error is nil and the stats are final.
// On cancellation, deadline, captured panic, injected
// fault, or a guarded checksum failure the scan stops committing
// immediately: the result holds the exact decided prefix of the reference
// edge sequence (Partial set) and a typed error is returned. Every worker
// is joined before any batch outcome is inspected, so no goroutine
// outlives run on any path, and no decision derived from a
// possibly-truncated search or an unverified cached bound is committed.
func (sc *metricScan) run(src CandidateSource, batchSize int) (err error) {
	t, h, bound, res, stats, env := sc.t, sc.h, sc.bound, sc.res, sc.stats, sc.env
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
	serial := graph.NewSearcher(n)
	stop := env.stopFn()
	serial.SetStop(stop)
	row := make([]float64, n)
	relaxed0 := 0
	if oracle != nil {
		relaxed0 = oracle.Relaxed()
	}
	var corrupter Corrupter = rowCorrupter{b: bound}

	// refreshExact recomputes row u against the live spanner, folds it
	// into the bound store, and returns the exact distance to v — the
	// value the serial reference's decision uses. With hubs the search is
	// bounded: every settled distance is exact, unreached entries stay
	// +Inf, and the decision only needs to know the distance up to limit,
	// so the returned value decides the pair exactly either way.
	refreshExact := func(u, v int, limit float64) (float64, error) {
		if oracle != nil {
			serial.BoundedDistances(h, u, hubRefreshRadiusFactor*limit, row)
		} else {
			serial.Distances(h, u, row)
		}
		if ferr := bound.foldRow(u, row); ferr != nil {
			return 0, ferr
		}
		stats.SerialRefreshes++
		stats.RefreshTouched += serial.LastTouched()
		return row[v], nil
	}
	// hubCertify answers one certification query from the hub labels and
	// pre-seeds the pair's bound row with the certified bound, so the cache
	// layer and the oracle compound: the next pair out of u at this scale certifies from the
	// row without even the O(k) hub scan.
	hubCertify := func(u, v int, limit float64) (bool, error) {
		stats.HubQueries++
		b, ok := oracle.Certify(u, v, limit)
		if !ok {
			return false, nil
		}
		stats.HubSkips++
		return true, bound.set(u, v, b)
	}
	accept := func(e graph.Edge) error {
		h.MustAddEdge(e.U, e.V, e.W)
		res.Edges = append(res.Edges, e)
		res.Weight += e.W
		if serr := bound.set(e.U, e.V, e.W); serr != nil {
			return serr
		}
		if oracle != nil {
			oracle.OnAccept(e)
		}
		stats.Kept++
		return nil
	}
	finish := func() {
		stats.RowsAllocated = bound.countRows()
		if bs, ok := src.(*bucketedSource); ok {
			stats.PeakBucketPairs = bs.PeakBucket()
			stats.SupplyPasses = bs.Passes()
		}
		if oracle != nil {
			stats.HubRelaxed = oracle.Relaxed() - relaxed0
		}
	}
	// checkBudget walks the in-scan degradation ladder at batch
	// boundaries under a byte budget: floor the batch width (sticky, via
	// the env's width cap), then drop the hub oracle, then drop the
	// cached bound rows, then record exhaustion once. Every step is
	// output-invariant — the cache and the oracle only accelerate
	// decisions the exact searches re-derive.
	rowsDropped := false
	checkBudget := func(batch int) int {
		if env == nil || env.budget.MaxBytes <= 0 {
			return batch
		}
		est := searcherPoolBytes(workers, n) + int64(batch)*edgeBytes +
			int64(bound.countRows())*int64(n)*boundRowBytesPerVertex
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
			oracle = nil
		case !rowsDropped:
			rowsDropped = true
			env.record(fmt.Sprintf("cached bound rows (%d) dropped under byte budget", bound.countRows()))
			bound.clear()
		case !env.exhausted:
			env.exhausted = true
			env.record("byte budget exhausted; no degradation steps remain")
		}
		return batch
	}

	if workers == 1 {
		// Serial fast path: the cached-bound scan with reusable scratch,
		// no snapshot pass; the supply is still streamed. Cancellation is
		// checked at batch boundaries and after each exact search, before
		// the decision it feeds is committed.
		chunk := env.clampBatch(batchSize)
		if chunk <= 0 {
			chunk = env.clampBatch(maxBatch)
		}
		for batchNo := 0; ; batchNo++ {
			if cerr := env.cancelled(); cerr != nil {
				return cerr
			}
			env.onBatch(batchNo, corrupter)
			pairs := src.NextBatch(chunk)
			if len(pairs) == 0 {
				break
			}
			for _, e := range pairs {
				limit := t * e.W
				env.onCertify(e)
				if bound.get(e.U, e.V) <= limit {
					if verr := bound.verifyPair(e.U, e.V); verr != nil {
						return verr
					}
					stats.CachedSkips++
					res.EdgesExamined++
					continue
				}
				if oracle != nil {
					ok, herr := hubCertify(e.U, e.V, limit)
					if herr != nil {
						return herr
					}
					if ok {
						res.EdgesExamined++
						continue
					}
				}
				d, rerr := refreshExact(e.U, e.V, limit)
				if rerr != nil {
					return rerr
				}
				if env.active() {
					if cerr := env.cancelled(); cerr != nil {
						return cerr
					}
				}
				if d <= limit {
					stats.SerialSkips++
					res.EdgesExamined++
					continue
				}
				if aerr := accept(e); aerr != nil {
					return aerr
				}
				res.EdgesExamined++
			}
		}
		stats.FinalBatchSize = serialBatchStat(batchSize, res.EdgesExamined)
		finish()
		return nil
	}

	pool := make([]*graph.Searcher, workers)
	rows := make([][]float64, workers)
	touchedBy := make([]int, workers)
	for i := range pool {
		pool[i] = graph.NewSearcher(n)
		pool[i].SetStop(stop)
		rows[i] = make([]float64, n)
	}
	// errs holds one slot per worker: a captured panic, a cancellation
	// bail-out, or a guarded checksum failure. Slots are written by their
	// owning worker only and read after the join.
	errs := make([]error, workers)
	var (
		cached []bool
		// exact[i] is pair i's exact snapshot distance, filled in phase 1
		// for every pair the cache pre-pass could not certify.
		exact []float64
		// sources collects the distinct row indices the current batch
		// needs refreshed; srcPairs[k] lists the batch positions whose
		// source is sources[k]; inBatch/srcAt stamp membership per round.
		sources  []int
		srcPairs [][]int32
		// srcLimit[k] is the largest query limit among sources[k]'s batch
		// pairs; with hubs the row refresh is bounded to a factor of it.
		srcLimit []float64
	)
	inBatch := make([]int, n)
	for i := range inBatch {
		inBatch[i] = -1
	}
	srcAt := make([]int, n)

	batch := env.clampBatch(batchSize)
	adaptive := batchSize <= 0
	if adaptive {
		batch = env.clampBatch(initialBatch(workers))
	}

	for {
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}
		env.onBatch(stats.Batches, corrupter)
		pairs := src.NextBatch(batch)
		if len(pairs) == 0 {
			break
		}
		round := stats.Batches
		stats.Batches++
		if len(pairs) > len(cached) {
			cached = make([]bool, len(pairs))
			exact = make([]float64, len(pairs))
		}

		// Serial pre-pass: certify what the cache (and then the hub
		// labels) already cover and collect the rows the rest of the
		// batch wants refreshed.
		sources = sources[:0]
		for i, e := range pairs {
			limit := t * e.W
			if cached[i] = bound.get(e.U, e.V) <= limit; cached[i] {
				if verr := bound.verifyPair(e.U, e.V); verr != nil {
					return verr
				}
				stats.CachedSkips++
				continue
			}
			if oracle != nil {
				ok, herr := hubCertify(e.U, e.V, limit)
				if herr != nil {
					return herr
				}
				if ok {
					cached[i] = true
					continue
				}
			}
			if inBatch[e.U] != round {
				inBatch[e.U] = round
				srcAt[e.U] = len(sources)
				sources = append(sources, e.U)
				if len(srcPairs) < len(sources) {
					srcPairs = append(srcPairs, nil)
					srcLimit = append(srcLimit, 0)
				}
				srcPairs[len(sources)-1] = srcPairs[len(sources)-1][:0]
				srcLimit[len(sources)-1] = 0
			}
			k := srcAt[e.U]
			srcPairs[k] = append(srcPairs[k], int32(i))
			if limit > srcLimit[k] {
				srcLimit[k] = limit
			}
		}

		// Phase 1: refresh the collected rows in parallel against the
		// frozen h. Sources are partitioned so each bound row is written
		// by exactly one worker; workers read only h and their own
		// scratch, and additionally record each of their pairs' exact
		// snapshot distances (disjoint exact[i] slots), so the only
		// synchronization needed is the join. A worker converts its own panic into a typed
		// error and bails out early on cancellation or a checksum
		// failure; either way it reaches wg.Done, so the pool drains.
		var wg sync.WaitGroup
		chunk := (len(sources) + workers - 1) / workers
		for w := 0; w < workers && w*chunk < len(sources); w++ {
			start, end := w*chunk, (w+1)*chunk
			if end > len(sources) {
				end = len(sources)
			}
			wg.Add(1)
			go func(w int, search *graph.Searcher, scratch []float64, start, end int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[w] = panicErr(p)
					}
				}()
				for k := start; k < end; k++ {
					if env.active() {
						if cerr := env.cancelled(); cerr != nil {
							errs[w] = cerr
							return
						}
					}
					u := sources[k]
					env.onCertify(pairs[srcPairs[k][0]])
					if oracle != nil {
						// Bounded refresh: the radius covers every one of
						// this row's batch pairs, so each recorded exact[i]
						// decides its pair — settled entries are exact and
						// +Inf certifies "beyond limit" (see refreshExact).
						search.BoundedDistances(h, u, hubRefreshRadiusFactor*srcLimit[k], scratch)
					} else {
						search.Distances(h, u, scratch)
					}
					//spannerlint:ignore frozensnap rows are owner-partitioned: each u in rows[w] is folded by exactly one worker
					if ferr := bound.foldRow(u, scratch); ferr != nil {
						errs[w] = ferr
						return
					}
					touchedBy[w] += search.LastTouched()
					for _, i := range srcPairs[k] {
						exact[i] = scratch[pairs[i].V]
					}
				}
			}(w, pool[w], rows[w], start, end)
		}
		wg.Wait()
		if werr := firstWorkerErr(errs); werr != nil {
			return werr
		}
		// Abandon the whole batch on cancellation: no decision was
		// committed yet, and the exact[] snapshot distances may rest on
		// truncated searches (the predicates are monotone, so passing
		// this check proves no phase-1 search was cut short).
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}
		stats.ParallelRefreshes += len(sources)
		for w := range touchedBy {
			stats.RefreshTouched += touchedBy[w]
			touchedBy[w] = 0
		}

		// Phase 2: replay the uncertified survivors serially in greedy
		// order. Until this batch's first accept the live spanner equals
		// the frozen snapshot, so the exact snapshot distance recorded in
		// phase 1 already is the exact live distance; afterwards each
		// survivor re-runs the exact refresh against the live spanner —
		// exactly the serial scan's decision. Each candidate is folded
		// into EdgesExamined as its decision commits, so an abort
		// mid-batch leaves the exact decided count.
		survivors := 0
		acceptedInBatch := false
		for i, e := range pairs {
			if cached[i] {
				res.EdgesExamined++
				continue
			}
			limit := t * e.W
			if bound.get(e.U, e.V) <= limit {
				if verr := bound.verifyPair(e.U, e.V); verr != nil {
					return verr
				}
				stats.CertifiedSkips++
				res.EdgesExamined++
				continue
			}
			survivors++
			d := exact[i]
			if acceptedInBatch {
				var rerr error
				d, rerr = refreshExact(e.U, e.V, limit)
				if rerr != nil {
					return rerr
				}
				if env.active() {
					if cerr := env.cancelled(); cerr != nil {
						return cerr
					}
				}
			}
			if d <= limit {
				stats.SerialSkips++
				res.EdgesExamined++
				continue
			}
			if aerr := accept(e); aerr != nil {
				return aerr
			}
			res.EdgesExamined++
			acceptedInBatch = true
		}

		// Adapt only on full-width rounds: a batch truncated at a bucket
		// boundary says nothing about snapshot staleness, the signal the
		// policy tracks.
		if adaptive && len(pairs) == batch {
			batch = env.clampBatch(adaptBatch(batch, survivors, len(pairs)))
		}
		batch = checkBudget(batch)
	}
	stats.FinalBatchSize = batch
	finish()
	return nil
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
