package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/metric"
)

// IncrementalSpanner is a maintained greedy t-spanner: after the initial
// build it accepts point insertions and deletions (metric mode) or edge
// insertions and deletions (graph mode), and after every batch its Result
// is bit-identical to a from-scratch greedy build on the surviving input —
// same edge sequence, weight, and examined-candidate count.
//
// # How a metric-mode flush works
//
// The greedy spanner is a function of the current input alone, so a
// metric-mode flush is exactly one from-scratch build:
// GreedyMetricFastParallelOpts on the surviving points in their
// maintained order, under the spanner's own MetricParallelOptions. Insert
// and Delete only update that point set; no cached bound rows, hub arrays,
// or id translations carry over from one flush to the next, and the
// result needs no renumbering because the survivors are already numbered
// densely. Resuming the scan mid-stream and carrying cached rows across
// updates was measured to cost about one rebuild per flush, and about two
// for deletion batches, so the rebuild is both the simplest and the
// cheapest way to the same bit-identical result. Euclidean survivors stay
// a *metric.Euclidean, so every rebuild keeps the grid-bucketed candidate
// supply of internal/geom.
//
// # How a graph-mode replay works
//
// The greedy scan consumes candidates in a fixed order (non-decreasing
// weight, ties by endpoint ids), and each decision depends only on the
// candidates and accepted edges before it. An edge insertion splices a
// candidate into that stream; an edge deletion removes one, and can only
// change decisions from the earliest accepted edge it matches onward. The
// earliest such position over a batch is the cut. Everything strictly
// before it is decided identically on the updated graph, so the engine
// keeps that accepted prefix verbatim and replays only the stream's tail —
// pulled from the cut-resumed streamed supply, which skips whole weight
// buckets below the cut by count alone, using a weight histogram
// maintained per update — through the same batched-certification scan
// that built the spanner. Deleting only edges the scan had rejected cuts
// after the last candidate, so the replay is pure accounting.
//
// # Why hub arrays survive a graph-mode replay
//
// Hub arrays synced to an accepted-edge prefix the replay preserves hold
// distances on a subgraph of every partial spanner the replay will build,
// and spanner distances only shrink as edges are added, so they stay true
// upper bounds and repair forward by dirty-radius re-relaxation. Arrays
// synced past the cut are refreshed whole by one bounded Dijkstra per hub
// at the next sync (see HubOracle.Rebase). Edge insertions replay far
// faster than a rebuild, which is why graph mode keeps this machinery and
// metric mode does not.
//
// # Batching and deferral
//
// By default every batch is flushed immediately, keeping Result always
// current. SetPolicy installs a coalescing policy instead: insertions and
// deletions are validated and applied to the maintained input eagerly
// (in graph mode the cut and the weight histogram too) but the flush is
// deferred until a query (Result) arrives or the pending operations reach
// a minimum batch width — so interleaved workloads amortize one flush over
// a whole run of updates. The flushed result is bit-identical to flushing
// each batch eagerly, because both equal the from-scratch build on the
// surviving input.
//
// # Concurrency
//
// An IncrementalSpanner is not safe for concurrent use: Result and Stats
// read the same state a concurrent Flush rewrites, so all calls must be
// serialized by the caller (the serving layer holds a single writer slot
// for this). What a concurrent architecture may rely on is that every
// *Result a flush has returned is immutable from then on — a metric flush
// builds a fresh Result, and a graph replay copies the kept prefix into
// fresh slices instead of truncating the old ones. Publishing a returned
// Result (plus anything derived from it, like Result.Graph) across
// goroutines is therefore race-free as long as the handoff itself is
// synchronized; internal/server makes an atomic snapshot swap the only
// such handoff.
type IncrementalSpanner struct {
	t float64

	// Metric mode: m is the surviving point set in maintained (dense)
	// order; nil in graph mode.
	m     metric.Metric
	mopts MetricParallelOptions

	// Graph mode. The spanner owns g (a private clone grown by
	// InsertEdges and shrunk by DeleteEdges).
	g     *graph.Graph
	gopts ParallelOptions

	// counts is g's maintained edge-weight histogram: built once at
	// construction, then each inserted edge is tallied and each deleted
	// one removed. Seeding the replay's source with it removes the
	// counting pass.
	counts pairCounts

	// oracle is graph mode's maintained hub-label fast path (nil when the
	// engine options disable hubs); it is rebased across replays.
	oracle *HubOracle

	policy IncrementalPolicy
	// pendingOps counts the updated elements (inserted plus deleted) a
	// flush owes; zero means nothing is pending. pendingCut is, in graph
	// mode, the earliest scan position any pending update disturbs.
	pendingOps int
	pendingCut graph.Edge

	// res is the maintained result, over the survivors' dense numbering.
	res *Result
}

// IncrementalPolicy controls when an IncrementalSpanner flushes pending
// updates; the zero value flushes on every Insert/InsertEdges/Delete/
// DeleteEdges call.
type IncrementalPolicy struct {
	// CoalesceUntilQuery defers the flush until Result or Flush is
	// called, however many update calls arrive in between.
	CoalesceUntilQuery bool
	// MinBatch defers the flush until at least MinBatch operations
	// (inserted plus deleted elements) are pending; a query still
	// flushes earlier. It acts as a flush trigger even when
	// CoalesceUntilQuery is set.
	MinBatch int
}

// coalescing reports whether the policy defers flushes at all.
func (p IncrementalPolicy) coalescing() bool {
	return p.CoalesceUntilQuery || p.MinBatch > 1
}

// SetPolicy installs the batching policy for subsequent updates. Any
// already-pending updates are flushed first if the new policy would have
// flushed them (it is eager, or its MinBatch trigger is already met); a
// non-nil error is that flush's error, with the pre-flush state preserved
// (see Flush).
func (s *IncrementalSpanner) SetPolicy(p IncrementalPolicy) error {
	s.policy = p
	if !p.coalescing() || (p.MinBatch > 0 && s.pendingOps >= p.MinBatch) {
		return s.Flush()
	}
	return nil
}

// SetContext installs the context every subsequent flush runs under; nil
// removes it. A cancelled flush aborts with ErrCancelled and preserves the
// pre-flush state, so the same pending updates can be flushed again under
// a fresh context.
func (s *IncrementalSpanner) SetContext(ctx context.Context) {
	s.mopts.Ctx = ctx
	s.gopts.Ctx = ctx
}

// Pending reports how many updated elements (inserted plus deleted) await
// a flush under a coalescing policy.
func (s *IncrementalSpanner) Pending() int { return s.pendingOps }

// errSupplyOption rejects supply overrides: a maintained spanner must own
// its candidate supply, because every flush needs a fresh stream over the
// updated input.
var errSupplyOption = fmt.Errorf("core: incremental spanner owns its candidate supply; Source and Materialize are not supported")

// NewIncrementalMetric builds the greedy t-spanner of m and returns the
// maintained spanner ready for point insertions via Insert and deletions
// via Delete. Every option of opts applies to the initial build and to
// every flush; Source and Materialize are rejected.
func NewIncrementalMetric(m metric.Metric, t float64, opts MetricParallelOptions) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	if opts.Source != nil || opts.Materialize {
		return nil, errSupplyOption
	}
	res, err := GreedyMetricFastParallelOpts(m, t, opts)
	if err != nil {
		return nil, fmt.Errorf("core: incremental initial build aborted: %w", err)
	}
	return &IncrementalSpanner{t: t, m: m, mopts: opts, res: res}, nil
}

// NewIncrementalGraph builds the greedy t-spanner of g and returns the
// maintained spanner ready for edge insertions via InsertEdges and
// deletions via DeleteEdges. The graph is cloned, so later mutations of g
// do not affect the maintained state. Workers, BatchSize, BucketPairs,
// and Stats of opts apply to the initial build and to every replay;
// Source and Materialize are rejected.
func NewIncrementalGraph(g *graph.Graph, t float64, opts ParallelOptions) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	if opts.Source != nil || opts.Materialize {
		return nil, errSupplyOption
	}
	s := &IncrementalSpanner{t: t, g: g.Clone(), gopts: opts}
	s.res = &Result{N: g.N(), Stretch: t}
	for _, e := range s.g.Edges() {
		s.counts.add(e.W)
	}
	sc := newGraphScan(t, graph.New(g.N()), s.res, opts)
	sc.attachHubs(opts.Budget, opts.Hubs, func(k int) []int { return SelectGraphHubs(s.g, k) })
	s.oracle = sc.oracle
	if err := sc.run(newGraphEdgeSourceSeeded(s.g, opts.BucketPairs, s.counts), opts.BatchSize); err != nil {
		return nil, fmt.Errorf("core: incremental initial build aborted: %w", err)
	}
	return s, nil
}

// Result returns the maintained spanner, flushing any updates a
// coalescing policy deferred. The returned value is a snapshot: later
// updates build a fresh Result rather than mutating it, so it stays valid
// (and must not be modified) after further update calls. On a flush error
// the maintained pre-flush result is returned alongside it. After
// deletions the result is expressed over the survivors' dense numbering
// (vertex i is the i-th surviving point in original insertion order).
func (s *IncrementalSpanner) Result() (*Result, error) {
	if err := s.Flush(); err != nil {
		return s.res, err
	}
	return s.res, nil
}

// Flush runs the flush any pending updates owe now: in metric mode one
// from-scratch build on the survivors, in graph mode a replay of the scan
// tail from the pending cut. It is a no-op when nothing is pending (in
// particular under the default flush-every-batch policy).
//
// Flush is atomic: either it completes and the maintained result advances
// to the spanner of the updated input, or — on cancellation, deadline, or
// captured panic — the maintained result and pending tally are exactly
// what they were before the call, and a typed error is returned. The same
// pending updates can then be flushed again (for example under a fresh
// context via SetContext). This holds for deletions exactly as for
// insertions: an update's bookkeeping is applied eagerly at Insert/Delete
// time and is not part of the flush, so an aborted flush leaves it intact.
func (s *IncrementalSpanner) Flush() (err error) {
	if s.pendingOps == 0 {
		return nil
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, panicErr(p))
		}
	}()
	var res *Result
	if s.m != nil {
		res, err = GreedyMetricFastParallelOpts(s.m, s.t, s.mopts)
	} else {
		res, err = s.replayGraph()
	}
	if err != nil {
		return fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, err)
	}
	s.res = res
	s.pendingOps = 0
	return nil
}

// replayGraph replays the graph-mode scan from the pending cut: the
// accepted prefix before the cut is kept verbatim, the hub oracle is
// rebased onto it, and the tail is drained from the cut-resumed supply.
func (s *IncrementalSpanner) replayGraph() (*Result, error) {
	keep := s.prefixLen(s.pendingCut)
	res := s.restart(keep)
	h := res.Graph()
	// The rebase fault-injection window: panics land in Flush's deferred
	// recover, and a cancellation is observed by the replay scan before
	// any decision commits.
	if s.gopts.Inject.OnRebase != nil {
		s.gopts.Inject.OnRebase(keep)
	}
	if s.oracle != nil {
		s.oracle.Rebase(keep, s.res.Edges, h)
	}
	sc := newGraphScan(s.t, h, res, s.gopts)
	sc.oracle = s.oracle
	return res, sc.run(newGraphEdgeSourceAfter(s.g, s.gopts.BucketPairs, s.pendingCut, s.counts), s.gopts.BatchSize)
}

// notePending folds one update batch's element count into the pending
// tally and flushes unless the policy defers it. A flush error leaves the
// update pending (see Flush). Graph-mode callers lower the cut with
// noteCut first.
func (s *IncrementalSpanner) notePending(ops int) error {
	s.pendingOps += ops
	if !s.policy.coalescing() || (s.policy.MinBatch > 0 && s.pendingOps >= s.policy.MinBatch) {
		return s.Flush()
	}
	return nil
}

// noteCut lowers the pending graph-mode cut to cut.
func (s *IncrementalSpanner) noteCut(cut graph.Edge) {
	if s.pendingOps == 0 || graph.EdgeLess(cut, s.pendingCut) {
		s.pendingCut = cut
	}
}

// Insert grows a metric-mode spanner with the points union appends to the
// current survivors. union must extend the maintained point set: its
// first LiveN() points are the surviving points in their maintained
// order, with identical pairwise distances, and any points beyond them
// are the insertions. union becomes the maintained point set; after the
// flush — immediately by default, at the next Result/Flush or MinBatch
// trigger under a coalescing policy — the maintained result is
// bit-identical to a from-scratch greedy build on union.
//
// A non-nil error from a cancelled or faulted flush does NOT reject the
// insertion: the points are recorded as pending and the pre-flush spanner
// is preserved; Flush rebuilds once the fault clears.
func (s *IncrementalSpanner) Insert(union metric.Metric) error {
	if s.m == nil {
		return fmt.Errorf("core: Insert on a graph-mode incremental spanner (use InsertEdges): %w", graph.ErrInvalidInput)
	}
	liveN, n := s.m.N(), union.N()
	if n < liveN {
		return fmt.Errorf("core: union has %d points, fewer than the current %d: %w", n, liveN, graph.ErrInvalidInput)
	}
	s.m = union
	if n == liveN {
		return nil
	}
	return s.notePending(n - liveN)
}

// InsertEdges grows a graph-mode spanner with the given edges (validated
// against the maintained vertex set before any state changes). After the
// insertion is replayed — immediately by default, at the next
// Result/Flush or MinBatch trigger under a coalescing policy — the
// maintained result is bit-identical to a from-scratch greedy build on
// the grown graph.
//
// Cost scales with the tail of the greedy scan the insertions disturb:
// the candidate stream is resumed at the first scan position any new edge
// occupies, and everything below it is preserved, never enumerated.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// insertion: the edges are recorded as pending and the pre-flush spanner
// is preserved; Flush replays them once the fault clears.
func (s *IncrementalSpanner) InsertEdges(edges ...graph.Edge) error {
	if s.g == nil {
		return fmt.Errorf("core: InsertEdges on a metric-mode incremental spanner (use Insert): %w", graph.ErrInvalidInput)
	}
	if len(edges) == 0 {
		return nil
	}
	for _, e := range edges {
		if err := graph.CheckEdge(s.g.N(), e.U, e.V, e.W); err != nil {
			return err
		}
	}
	cut := edges[0].Canonical()
	for _, e := range edges {
		e = e.Canonical()
		s.g.MustAddEdge(e.U, e.V, e.W)
		s.counts.add(e.W)
		if graph.EdgeLess(e, cut) {
			cut = e
		}
	}
	s.noteCut(cut)
	return s.notePending(len(edges))
}

// Delete removes points from a metric-mode spanner. Points are named by
// their current maintained indices — positions in the Result numbering,
// i.e. 0 <= p < LiveN() — and must be distinct; on a validation error no
// state changes. After the flush (immediately by default; see
// IncrementalPolicy), the maintained result is bit-identical to a
// from-scratch greedy build on the surviving points, renumbered densely in
// their maintained order.
//
// A non-nil error from a cancelled or faulted flush does NOT reject the
// deletion: it is recorded as pending and the pre-flush spanner is
// preserved; Flush rebuilds once the fault clears.
func (s *IncrementalSpanner) Delete(points ...int) error {
	if s.m == nil {
		return fmt.Errorf("core: Delete on a graph-mode incremental spanner (use DeleteEdges): %w", graph.ErrInvalidInput)
	}
	if len(points) == 0 {
		return nil
	}
	liveN := s.m.N()
	gone := make(map[int]bool, len(points))
	for _, p := range points {
		if p < 0 || p >= liveN {
			return fmt.Errorf("core: Delete point %d out of range [0, %d): %w", p, liveN, graph.ErrInvalidInput)
		}
		if gone[p] {
			return fmt.Errorf("core: Delete point %d listed twice: %w", p, graph.ErrInvalidInput)
		}
		gone[p] = true
	}
	s.m = dropPoints(s.m, gone)
	return s.notePending(len(points))
}

// dropPoints returns m without the points marked gone, survivors renumbered
// densely in their order. A Euclidean metric stays Euclidean (over the
// same coordinate rows), so rebuilds keep the grid enumerator; any other
// metric becomes an index view over its base.
func dropPoints(m metric.Metric, gone map[int]bool) metric.Metric {
	keep := make([]int, 0, m.N()-len(gone))
	for i := 0; i < m.N(); i++ {
		if !gone[i] {
			keep = append(keep, i)
		}
	}
	switch mm := m.(type) {
	case *metric.Euclidean:
		pts := make([][]float64, len(keep))
		for j, i := range keep {
			pts[j] = mm.Point(i)
		}
		return metric.MustEuclidean(pts)
	case *survivorView:
		for j, i := range keep {
			keep[j] = mm.idx[i]
		}
		m = mm.base
	}
	return &survivorView{base: m, idx: keep}
}

// survivorView is a non-Euclidean metric restricted to the surviving
// points: dense id j is base point idx[j].
type survivorView struct {
	base metric.Metric
	idx  []int
}

func (v *survivorView) N() int                { return len(v.idx) }
func (v *survivorView) Dist(i, j int) float64 { return v.base.Dist(v.idx[i], v.idx[j]) }

// DeleteEdges removes edges from a graph-mode spanner. Each edge must
// match an existing edge exactly (endpoints up to orientation, weight
// bit-identical); requesting more copies of a parallel edge than the
// graph holds is a validation error, and on any validation error no state
// changes. After the deletion is replayed (immediately by default; see
// IncrementalPolicy), the maintained result is bit-identical to a
// from-scratch greedy build on the surviving graph.
//
// Cost scales with the suffix of the greedy scan the deletions disturb:
// the scan resumes at the earliest accepted edge matching a deleted
// value. Deleting only edges the greedy scan had rejected costs no replay
// work beyond the bookkeeping.
func (s *IncrementalSpanner) DeleteEdges(edges ...graph.Edge) error {
	if err := s.ValidateDeleteEdges(edges...); err != nil {
		return err
	}
	if len(edges) == 0 {
		return nil
	}
	want := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		want[e.Canonical()]++
	}
	// The cut is the earliest accepted edge whose value matches a deleted
	// one. On multigraphs this is conservative — the accepted copy may be
	// a surviving parallel twin — but it is always sound, and the greedy
	// scan never accepts two edges of identical value (the first makes
	// the second's distance test fail for every t >= 1), so accepted
	// values are unambiguous. With no such edge the sentinel sorts after
	// every real candidate, so the whole scan is preserved and the replay
	// is pure accounting.
	cut := graph.Edge{W: math.Inf(1), U: s.g.N(), V: s.g.N()}
	for _, e := range s.res.Edges {
		if _, ok := want[e]; ok {
			cut = e
			break
		}
	}
	for _, e := range edges {
		e = e.Canonical()
		if rerr := s.g.RemoveEdge(e.U, e.V, e.W); rerr != nil {
			panic(rerr) // unreachable: validated above
		}
		s.counts.remove(e.W)
	}
	s.noteCut(cut)
	return s.notePending(len(edges))
}

// ValidateDeleteEdges checks a DeleteEdges batch against the current
// graph without changing any state: every edge must match an existing
// edge exactly (endpoints up to orientation, weight bit-identical), and a
// batch may not request more copies of a parallel edge than the graph
// holds. DeleteEdges performs exactly this check before mutating, so a
// batch this method accepts cannot subsequently be rejected — which is
// what lets a write-ahead log record the operation before applying it.
func (s *IncrementalSpanner) ValidateDeleteEdges(edges ...graph.Edge) error {
	if s.g == nil {
		return fmt.Errorf("core: DeleteEdges on a metric-mode incremental spanner (use Delete): %w", graph.ErrInvalidInput)
	}
	// Count requested copies per canonical edge, remembering first-seen
	// order so a rejection always names the same edge regardless of map
	// iteration order.
	want := make(map[graph.Edge]int, len(edges))
	order := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		c := e.Canonical()
		if want[c] == 0 {
			order = append(order, c)
		}
		want[c]++
	}
	have := make(map[graph.Edge]int, len(want))
	for _, e := range s.g.Edges() {
		if _, ok := want[e]; ok {
			have[e]++
		}
	}
	for _, e := range order {
		if k := want[e]; have[e] < k {
			return fmt.Errorf("core: DeleteEdges wants %d copies of edge (%d, %d, %v), graph has %d: %w",
				k, e.U, e.V, e.W, have[e], graph.ErrInvalidInput)
		}
	}
	return nil
}

// prefixLen reports how many of the maintained accepted edges precede cut
// in scan order — the prefix the replay reproduces verbatim. The accepted
// sequence is in scan order, so this is a binary search.
func (s *IncrementalSpanner) prefixLen(cut graph.Edge) int {
	return sort.Search(len(s.res.Edges), func(i int) bool {
		return !graph.EdgeLess(s.res.Edges[i], cut)
	})
}

// restart builds the replay's starting Result: the first keep accepted
// edges, re-accumulated in order so the weight sum repeats the exact
// float64 additions a from-scratch scan performs.
func (s *IncrementalSpanner) restart(keep int) *Result {
	res := &Result{N: s.g.N(), Stretch: s.t}
	res.Edges = append(make([]graph.Edge, 0, keep), s.res.Edges[:keep]...)
	for _, e := range res.Edges {
		res.Weight += e.W
	}
	return res
}
