package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// CandidateSource supplies candidate edges to the greedy engines in the
// exact greedy scan order: non-decreasing weight, ties broken by (U, V).
// NextBatch returns the next at most maxW candidates and nil once the
// supply is exhausted; the returned slice is only valid until the next
// call. A source may return fewer than maxW candidates while more remain
// (the bucketed sources stop at bucket boundaries), so callers must treat
// only an empty result as end of supply.
//
// The streaming sources exist so the engines' resident set scales with the
// largest weight bucket instead of with the full candidate set: the
// classic pipeline materializes all n(n-1)/2 interpoint pairs and sorts
// them globally before the first greedy decision, while a CandidateSource
// produces and sorts one bounded bucket at a time.
type CandidateSource interface {
	NextBatch(maxW int) []graph.Edge
}

// MaterializedSource adapts an explicit, already-sorted candidate slice to
// the CandidateSource interface. It is the bridge to the classic
// materialize-then-sort pipeline: the engines use it when
// (Metric)ParallelOptions.Materialize is set, and benchmarks use it to
// measure the memory gap against the streamed supplies.
type MaterializedSource struct {
	edges []graph.Edge
	pos   int
}

// NewMaterializedSource wraps sorted, which must already be in greedy scan
// order (graph.SortEdges order). The slice is not copied.
func NewMaterializedSource(sorted []graph.Edge) *MaterializedSource {
	return &MaterializedSource{edges: sorted}
}

// NextBatch returns the next at most maxW candidates.
func (s *MaterializedSource) NextBatch(maxW int) []graph.Edge {
	if maxW < 1 {
		maxW = 1
	}
	if s.pos >= len(s.edges) {
		return nil
	}
	hi := s.pos + maxW
	if hi > len(s.edges) {
		hi = len(s.edges)
	}
	out := s.edges[s.pos:hi]
	s.pos = hi
	return out
}

// pairEnumerator produces the raw (unsorted) candidate pairs of one weight
// range. Pairs must call fn exactly once for every unordered candidate
// pair (u, v) with u < v and weight in the range (see weightInRange), in
// any order. Enumeration must be deterministic in w: repeated calls see
// identical weights, so a pair is assigned to exactly one range of a
// partition.
type pairEnumerator interface {
	Pairs(lo, hi float64, fn func(u, v int, w float64))
}

// Enumerators share graph.WeightInRange as the range predicate, so
// infinite weights (a custom metric's "disconnected" sentinel) flow
// through the counting pass and the dedicated final bucket exactly once
// instead of being dropped — the serial reference examines them too. NaN
// weights are outside every range; the greedy scan order is undefined for
// them on any path.

// metricEnumerator enumerates all n(n-1)/2 pairs of a metric by brute
// force, filtering on the weight range. O(n^2) distance evaluations per
// call and zero retained memory.
type metricEnumerator struct {
	m metric.Metric
}

func (e metricEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) {
	n := e.m.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := e.m.Dist(i, j); graph.WeightInRange(w, lo, hi) {
				fn(i, j, w)
			}
		}
	}
}

// graphEdgeEnumerator enumerates a graph's own edge list, the candidate
// set of the graph engines. One O(m) scan per call, no copy of the list.
type graphEdgeEnumerator struct {
	g *graph.Graph
}

func (e graphEdgeEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) {
	e.g.EdgesInRange(lo, hi, func(ed graph.Edge) {
		fn(ed.U, ed.V, ed.W)
	})
}

// DefaultBucketPairs is the default cap on the number of candidate pairs a
// bucketed source holds materialized at once; see BucketPairs on
// ParallelOptions and MetricParallelOptions. Buckets larger than the cap
// are subdivided into narrower weight ranges before materialization, so
// peak supply memory is O(cap) edges at the price of one extra counting
// pass per subdivision.
const DefaultBucketPairs = 1 << 19

// maxSubranges bounds how many sub-ranges one oversized bucket is split
// into per pass; deeper recursion handles the rest.
const maxSubranges = 64

// interval is one pending weight range [lo, hi) of a bucketed source with
// its known candidate count. noSplit marks ranges that subdivision cannot
// shrink (all candidates share one weight), which are materialized whole.
type interval struct {
	lo, hi  float64
	count   int
	noSplit bool
}

// bucketedSource is the streaming candidate supply: candidates are
// partitioned into geometric weight buckets [2^(e-1), 2^e) by one counting
// pass, and only the active bucket is ever materialized and sorted —
// O(B log B) per bucket instead of one global O(N log N) sort, with peak
// memory O(max bucket) instead of O(N) for N candidates. Buckets larger
// than cap are subdivided into narrower equal-width ranges (an extra
// counting pass each) until they fit, so the cap really is the peak.
type bucketedSource struct {
	enum   pairEnumerator
	cap    int
	queue  []interval
	bucket []graph.Edge
	pos    int
	opened bool
	// cut, when non-nil, suppresses every candidate that precedes it in
	// scan order: whole weight buckets strictly below cut.W are dropped by
	// count alone — never enumerated, materialized, or sorted — and the
	// one bucket straddling the cut is filtered after its sort. Dropped
	// candidates are tallied in skipped so callers can keep exact
	// examined-pair accounting. This is how the graph-mode incremental
	// engine resumes a greedy scan at the first position an update disturbs.
	cut *graph.Edge
	// skipped counts candidates suppressed by cut.
	skipped int
	// seed, when non-nil, replaces open's counting pass: the caller
	// already knows the candidate set's weight histogram (the graph-mode
	// incremental engine maintains it across updates), so the source never has to
	// enumerate the full candidate set just to bucket it.
	seed *pairCounts
	// alloc is the bucket buffer's target capacity, fixed at open time to
	// min(cap, largest bucket count) so one backing array serves every
	// bucket without repeated regrowth garbage.
	alloc int
	// peak tracks the largest materialized bucket, for benchmarks.
	peak int
	// prefetchIv/prefetchOK mark that the bucket buffer already holds the
	// pairs of interval prefetchIv, collected for free during a split's
	// counting pass (the pass visits every pair of the parent anyway, and
	// the buffer's previous bucket is exhausted by the time refill
	// splits); refill then serves that child without re-enumerating it.
	// Collection is abandoned the moment the child exceeds cap, so the
	// buffer never outgrows its usual bound.
	prefetchIv   interval
	prefetchOK   bool
	prefetchHits int
	// passes counts pairEnumerator.Pairs calls (counting, subdivision,
	// and collection), the supply's dominant repeated cost on brute-force
	// enumerators; benchmarks record it to track pass-merging wins.
	passes int
}

// newBucketedSource wraps enum with bucket-size cap bucketPairs. With
// bucketPairs <= 0 the cap is chosen at open time as
// max(DefaultBucketPairs, total/32): large instances trade a slightly
// larger peak bucket for far fewer subdivision passes.
func newBucketedSource(enum pairEnumerator, bucketPairs int) *bucketedSource {
	if bucketPairs < 0 {
		bucketPairs = 0
	}
	return &bucketedSource{enum: enum, cap: bucketPairs}
}

// metricEnumeratorFor picks the pair enumerator for m: the grid-bucketed
// enumerator of internal/geom for Euclidean metrics, brute force
// otherwise.
func metricEnumeratorFor(m metric.Metric) pairEnumerator {
	if eu, ok := m.(*metric.Euclidean); ok && eu.N() > 0 {
		pts := make([][]float64, eu.N())
		for i := range pts {
			pts[i] = eu.Point(i)
		}
		// Weights come from m.Dist, the same call the materialized
		// pipeline makes, so streamed weights are bit-identical; the grid
		// only decides which pairs to test.
		return geom.NewGridEnumerator(pts, m.Dist)
	}
	return metricEnumerator{m: m}
}

// NewMetricSource returns the streaming candidate supply over all
// n(n-1)/2 interpoint pairs of m in greedy scan order. Euclidean metrics
// get the grid-bucketed enumerator of internal/geom, which produces a
// weight bucket by scanning only grid cells within the bucket's distance —
// farther pairs are never touched; all other metrics get the brute-force
// enumerator (one O(n^2) distance pass per bucket, still O(bucket)
// memory). bucketPairs <= 0 selects DefaultBucketPairs.
func NewMetricSource(m metric.Metric, bucketPairs int) CandidateSource {
	return newBucketedSource(metricEnumeratorFor(m), bucketPairs)
}

// NewGraphEdgeSource returns the streaming supply over g's edge list in
// greedy scan order. It replaces the sorted O(m) copy of SortedEdges with
// per-bucket collection: one O(m) counting pass, then for each weight
// bucket an O(m) filter pass plus an O(B log B) sort of just that bucket.
// bucketPairs <= 0 selects DefaultBucketPairs.
func NewGraphEdgeSource(g *graph.Graph, bucketPairs int) CandidateSource {
	return newBucketedSource(graphEdgeEnumerator{g: g}, bucketPairs)
}

// newGraphEdgeSourceSeeded is NewGraphEdgeSource with the counting pass
// replaced by a caller-maintained weight histogram; see
// bucketedSource.seed.
func newGraphEdgeSourceSeeded(g *graph.Graph, bucketPairs int, counts pairCounts) *bucketedSource {
	s := newBucketedSource(graphEdgeEnumerator{g: g}, bucketPairs)
	s.seed = &counts
	return s
}

// newGraphEdgeSourceAfter is newGraphEdgeSourceSeeded with the scan
// resumed at cut: candidates strictly before cut in scan order are counted
// into Skipped instead of emitted, and whole weight buckets below the cut
// are skipped by count alone without ever enumerating their pairs.
func newGraphEdgeSourceAfter(g *graph.Graph, bucketPairs int, cut graph.Edge, counts pairCounts) *bucketedSource {
	s := newGraphEdgeSourceSeeded(g, bucketPairs, counts)
	s.cut = &cut
	return s
}

// expOffset aligns Frexp exponents into the pairCounts histogram: the
// lowest subnormal exponent from Frexp is -1074.
const expOffset = 1075

// pairCounts is the weight histogram of a candidate set — per-binary-
// exponent counts plus dedicated zero and +Inf tallies, exactly the
// product of the bucketed source's counting pass. The graph-mode
// incremental engine maintains one across edge updates (each inserted
// candidate is added once, each deleted one removed) and seeds its
// sources with it, so a resumed scan never enumerates the full
// candidate set just to bucket it.
type pairCounts struct {
	exp   [expOffset + 1025]int
	zeros int
	infs  int
}

// add tallies one candidate weight; it must mirror exactly what open's
// counting pass does with the weight.
func (c *pairCounts) add(w float64) {
	switch {
	case w == 0:
		c.zeros++
	case math.IsInf(w, 1):
		c.infs++
	default:
		_, e := math.Frexp(w)
		c.exp[e+expOffset]++
	}
}

// remove un-tallies one candidate weight; the exact inverse of add. The
// graph-mode incremental engine calls it when a deletion retires an edge, so
// the maintained histogram stays the histogram of the surviving set and a
// resumed scan's bucket layout matches what a fresh counting pass over the
// survivors would build.
func (c *pairCounts) remove(w float64) {
	switch {
	case w == 0:
		c.zeros--
	case math.IsInf(w, 1):
		c.infs--
	default:
		_, e := math.Frexp(w)
		c.exp[e+expOffset]--
	}
}

// total reports the number of tallied candidates.
func (c *pairCounts) total() int {
	n := c.zeros + c.infs
	for _, k := range c.exp {
		n += k
	}
	return n
}

// open partitions the candidate weights into geometric buckets keyed by
// binary exponent: bucket e holds weights in [2^(e-1), 2^e). The
// histogram comes from the seed when the caller maintains one, otherwise
// from a single counting pass over the enumerator. Exponent extraction is
// exactly monotone in the weight, so bucket order is scan order; zero
// weights (degenerate inputs) get a dedicated first bucket.
func (s *bucketedSource) open() {
	s.opened = true
	counts := s.seed
	if counts == nil {
		counts = &pairCounts{}
		s.passes++
		s.enum.Pairs(0, math.Inf(1), func(u, v int, w float64) {
			counts.add(w)
		})
	}
	first := math.Inf(1)
	total := counts.total()
	if s.cap == 0 {
		s.cap = DefaultBucketPairs
		if auto := total / 32; auto > s.cap {
			s.cap = auto
		}
	}
	for e := range counts.exp {
		if counts.exp[e] == 0 {
			continue
		}
		lo := math.Ldexp(1, e-expOffset-1)
		hi := math.Ldexp(1, e-expOffset)
		if lo < first {
			first = lo
		}
		s.queue = append(s.queue, interval{lo: lo, hi: hi, count: counts.exp[e]})
	}
	if counts.zeros > 0 {
		// Cap below +Inf so the zero bucket can never swallow the
		// infinite-weight bucket when no finite weights exist.
		if math.IsInf(first, 1) {
			first = math.MaxFloat64
		}
		s.queue = append([]interval{{lo: 0, hi: first, count: counts.zeros, noSplit: true}}, s.queue...)
	}
	if counts.infs > 0 {
		// Infinite weights scan last, after every finite bucket.
		s.queue = append(s.queue, interval{lo: math.Inf(1), hi: math.Inf(1), count: counts.infs, noSplit: true})
	}
	if s.cut != nil {
		// Drop every interval wholly before the cut by its count alone:
		// finite-hi intervals hold weights strictly below hi, so hi <=
		// cut.W puts all of them strictly before the cut in scan order.
		// The infinite-weight interval (lo = +Inf) can tie cut.W and is
		// always kept for the post-sort filter in refill.
		kept := s.queue[:0]
		for _, iv := range s.queue {
			if !math.IsInf(iv.lo, 1) && iv.hi <= s.cut.W {
				s.skipped += iv.count
				continue
			}
			kept = append(kept, iv)
		}
		s.queue = kept
	}
	// Merge runs of adjacent small buckets into one collection pass: the
	// geometric buckets partition the weight axis in scan order, so a
	// merged range [lo_a, hi_b) enumerates, sorts, and emits exactly the
	// concatenation the individual buckets would — one pass instead of
	// several — and the cap keeps the peak bucket bound intact. The
	// dedicated infinite-weight bucket stays unmerged (refill's
	// finite-only filter depends on its identity).
	merged := s.queue[:0]
	for _, iv := range s.queue {
		if n := len(merged); n > 0 {
			prev := &merged[n-1]
			if !math.IsInf(iv.lo, 1) && prev.count+iv.count <= s.cap {
				prev.hi = iv.hi
				prev.count += iv.count
				prev.noSplit = false
				continue
			}
		}
		merged = append(merged, iv)
	}
	s.queue = merged
	for _, iv := range s.queue {
		if iv.count > s.alloc {
			s.alloc = iv.count
		}
	}
	if s.alloc > s.cap {
		s.alloc = s.cap // oversized buckets are subdivided before collection
	}
}

// refill materializes the next non-empty bucket into s.bucket, subdividing
// oversized weight ranges first. Reports false when the supply is done.
func (s *bucketedSource) refill() bool {
	for len(s.queue) > 0 {
		iv := s.queue[0]
		s.queue = s.queue[1:]
		if iv.count == 0 {
			continue
		}
		if s.cut != nil && !math.IsInf(iv.lo, 1) && iv.hi <= s.cut.W {
			// A subdivision child that fell wholly below the cut: skip it
			// by count, like the whole buckets dropped at open time.
			if s.prefetchOK && iv.lo == s.prefetchIv.lo && iv.hi == s.prefetchIv.hi {
				s.prefetchOK = false
			}
			s.skipped += iv.count
			continue
		}
		if iv.count > s.cap && !iv.noSplit {
			if sub := s.split(iv); sub != nil {
				s.queue = append(sub, s.queue...)
				continue
			}
			// Unsplittable (weights too close); fall through and
			// materialize whole.
		}
		if s.prefetchOK && iv.lo == s.prefetchIv.lo && iv.hi == s.prefetchIv.hi {
			// The split's counting pass already left this child's pairs in
			// the bucket buffer; skip the enumeration pass.
			s.prefetchOK = false
			s.prefetchHits++
		} else {
			if cap(s.bucket) < iv.count {
				// Allocate at the open-time target so later (larger) buckets
				// reuse the same backing array instead of leaving a trail of
				// garbage; only unsplittable tie spikes can exceed it.
				want := s.alloc
				if iv.count > want {
					want = iv.count
				}
				s.bucket = make([]graph.Edge, 0, want)
			}
			s.bucket = s.bucket[:0]
			// The top finite bucket's hi overflows Ldexp to +Inf (weights in
			// [2^1023, MaxFloat64]), and WeightInRange admits w == +Inf at an
			// infinite hi — but infinite weights belong exclusively to the
			// dedicated last interval (lo == +Inf), where the counting pass
			// tallied them. Filter them out of finite-lo collections so no
			// candidate is ever emitted twice.
			finiteOnly := !math.IsInf(iv.lo, 1) && math.IsInf(iv.hi, 1)
			s.passes++
			s.enum.Pairs(iv.lo, iv.hi, func(u, v int, w float64) {
				if finiteOnly && math.IsInf(w, 1) {
					return
				}
				s.bucket = append(s.bucket, graph.Edge{U: u, V: v, W: w})
			})
		}
		if len(s.bucket) == 0 {
			continue
		}
		graph.SortEdges(s.bucket)
		s.pos = 0
		if len(s.bucket) > s.peak {
			s.peak = len(s.bucket)
		}
		if s.cut != nil {
			// The bucket straddling the cut: drop the sorted prefix that
			// precedes the cut. Buckets partition the weight axis in scan
			// order, so once one candidate at or past the cut is emitted,
			// every later bucket is past it too and the filter retires.
			drop := 0
			for drop < len(s.bucket) && graph.EdgeLess(s.bucket[drop], *s.cut) {
				drop++
			}
			s.skipped += drop
			s.pos = drop
			if drop == len(s.bucket) {
				continue // whole bucket before the cut; pos stays exhausted
			}
			s.cut = nil
		}
		return true
	}
	return false
}

// split subdivides iv into up to maxSubranges equal-width sub-ranges with
// one counting pass, returning them in weight order. It returns nil when
// the width cannot be subdivided further — boundaries collapse or the
// range is already within relative rounding width of a single weight
// (a tie spike, which no weight partition can split below the cap). A
// child that absorbs the whole parent is re-split on its narrower range
// when popped, so skewed distributions still converge to the cap; the
// width guard bounds that recursion to a few dozen counting passes.
func (s *bucketedSource) split(iv interval) []interval {
	if iv.hi-iv.lo <= iv.lo*1e-12 {
		return nil
	}
	k := (iv.count + s.cap - 1) / s.cap
	if k > maxSubranges {
		k = maxSubranges
	}
	bounds := make([]float64, k+1)
	bounds[0], bounds[k] = iv.lo, iv.hi
	for j := 1; j < k; j++ {
		bounds[j] = iv.lo + (iv.hi-iv.lo)*float64(j)/float64(k)
	}
	for j := 1; j <= k; j++ {
		if !(bounds[j] > bounds[j-1]) {
			return nil
		}
	}
	counts := make([]int, k)
	// Collect the first sub-range's pairs while counting: the pass visits
	// every pair of the parent anyway, and the first child is the next
	// range refill materializes, so a complete collection (abandoned the
	// moment the child exceeds cap, keeping the memory bound) saves that
	// child's whole enumeration pass. The bucket buffer is free for this —
	// refill only splits once the previous bucket is exhausted.
	collecting := true
	s.prefetchOK = false
	if cap(s.bucket) < s.alloc {
		s.bucket = make([]graph.Edge, 0, s.alloc)
	}
	s.bucket = s.bucket[:0]
	s.passes++
	s.enum.Pairs(iv.lo, iv.hi, func(u, v int, w float64) {
		// Locate the sub-range with lo <= w < hi; ranges partition
		// [iv.lo, iv.hi) so linear probing from the top is exact.
		j := k - 1
		for j > 0 && w < bounds[j] {
			j--
		}
		counts[j]++
		if j == 0 && collecting {
			if counts[0] > s.cap {
				collecting = false
				s.bucket = s.bucket[:0]
			} else {
				s.bucket = append(s.bucket, graph.Edge{U: u, V: v, W: w})
			}
		}
	})
	sub := make([]interval, 0, k)
	for j := 0; j < k; j++ {
		if counts[j] == 0 {
			continue
		}
		sub = append(sub, interval{lo: bounds[j], hi: bounds[j+1], count: counts[j]})
	}
	if collecting && counts[0] > 0 {
		s.prefetchIv = interval{lo: bounds[0], hi: bounds[1], count: counts[0]}
		s.prefetchOK = true
	}
	return sub
}

// NextBatch returns the next at most maxW candidates in greedy scan order.
func (s *bucketedSource) NextBatch(maxW int) []graph.Edge {
	if maxW < 1 {
		maxW = 1
	}
	if !s.opened {
		s.open()
	}
	for s.pos >= len(s.bucket) {
		if !s.refill() {
			return nil
		}
	}
	hi := s.pos + maxW
	if hi > len(s.bucket) {
		hi = len(s.bucket)
	}
	out := s.bucket[s.pos:hi]
	s.pos = hi
	return out
}

// PeakBucket reports the largest number of candidates the source has held
// materialized at once — the supply's actual memory high-water mark in
// edges.
func (s *bucketedSource) PeakBucket() int { return s.peak }

// Skipped reports how many candidates the cut suppressed. It is complete
// once the source has been drained; the engines fold it into
// EdgesExamined so a resumed scan accounts for exactly the candidates a
// full scan examines.
func (s *bucketedSource) Skipped() int { return s.skipped }

// Passes reports how many enumeration passes (counting, subdivision, and
// collection) the source has issued — the repeated-pass cost the merged
// buckets and the subdivision prefetch eliminate; benchmarks record it.
func (s *bucketedSource) Passes() int { return s.passes }
