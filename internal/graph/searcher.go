package graph

// Searcher runs repeated shortest-path queries over graphs with a fixed
// vertex count while reusing all internal buffers, eliminating the per-call
// allocations of the convenience methods on Graph. It is the workhorse of
// the greedy main loops, which issue one distance query per candidate edge.
//
// A Searcher is not safe for concurrent use. The graph passed to each call
// may differ between calls (e.g., a growing spanner) as long as its vertex
// count matches the Searcher's.
type Searcher struct {
	scratch *dijkstraScratch
	// bidir is allocated on first use so Searchers that only ever run
	// one-sided queries don't pay for the second set of buffers.
	bidir *bidirScratch
	// masked is the vertex-failure mark buffer of the masked searches,
	// allocated on first use and cleared after every call.
	masked []bool
	// stop is the cooperative cancellation predicate installed by SetStop,
	// propagated to the bidirectional scratch when that is allocated.
	stop func() bool
	n    int
}

// NewSearcher returns a Searcher for graphs on n vertices.
func NewSearcher(n int) *Searcher {
	return &Searcher{scratch: newDijkstraScratch(n), n: n}
}

// N reports the vertex count the Searcher was sized for.
func (s *Searcher) N() int { return s.n }

// SetStop installs a cooperative cancellation predicate: every search the
// Searcher runs polls stop every few thousand heap pops and abandons the
// search when it returns true. An abandoned search leaves only valid
// tentative distances behind (Dijkstra relaxations never undercut true
// distances), but its point answers may be overestimates — callers must
// check their own cancellation signal after each query and discard the
// answer when it fired. A nil stop restores unconditional searches and
// costs the hot loops nothing.
func (s *Searcher) SetStop(stop func() bool) {
	s.stop = stop
	s.scratch.stop = stop
	if s.bidir != nil {
		s.bidir.stop = stop
	}
}

// DistanceWithin reports the shortest-path distance from src to dst in g if
// it is at most limit, and (Inf, false) otherwise, like
// Graph.DistanceWithin but allocation-free.
func (s *Searcher) DistanceWithin(g *Graph, src, dst int, limit float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	g.dijkstra(src, dst, limit, s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	if d <= limit {
		return d, true
	}
	return Inf, false
}

// BidirDistanceWithin reports the shortest-path distance from src to dst in
// g if it is at most limit, and (Inf, false) otherwise, growing bounded
// Dijkstra balls from both endpoints at once. Each side explores radius
// roughly limit/2, so on graphs whose balls grow with radius it settles far
// fewer vertices than the one-sided DistanceWithin. It is the exact query
// primitive of the served reads; it is allocation-free after the first
// call.
func (s *Searcher) BidirDistanceWithin(g *Graph, src, dst int, limit float64) (float64, bool) {
	return s.bidirSearch(g, src, dst, limit, false)
}

// BidirDecideWithin is the decision-only form of BidirDistanceWithin: it
// reports (d, true) as soon as the two balls close a src–dst path of
// length d <= limit, and (Inf, false) when no path within limit exists.
// d is the length of the first such path found — an upper bound on the
// distance, not necessarily the distance — so a pair within limit is
// answered without finishing the search. This is the greedy engine's
// certification primitive, which needs only the yes/no answer.
func (s *Searcher) BidirDecideWithin(g *Graph, src, dst int, limit float64) (float64, bool) {
	return s.bidirSearch(g, src, dst, limit, true)
}

func (s *Searcher) bidirSearch(g *Graph, src, dst int, limit float64, decide bool) (float64, bool) {
	if src == dst {
		return 0, true
	}
	if s.bidir == nil {
		s.bidir = newBidirScratch(s.n)
		s.bidir.stop = s.stop
	}
	d := g.bidirDistanceWithin(src, dst, limit, decide, s.bidir)
	s.bidir.reset()
	if d < Inf && d <= limit {
		return d, true
	}
	return Inf, false
}

// PathWithin reports a shortest path from src to dst in g of total weight
// at most limit as a vertex sequence (src first, dst last) together with
// its length, and (nil, Inf, false) when dst is farther than limit. The
// returned slice is freshly allocated — the path outlives the Searcher's
// scratch, which the next query reuses. Like every Searcher query it
// honors SetStop; a stopped search may report (nil, Inf, false) for a
// reachable pair, so callers re-check their cancellation signal after
// the call and discard the answer when it fired.
func (s *Searcher) PathWithin(g *Graph, src, dst int, limit float64) ([]int, float64, bool) {
	if src == dst {
		return []int{src}, 0, true
	}
	g.dijkstra(src, dst, limit, s.scratch)
	d := s.scratch.dist[dst]
	var path []int
	if d < Inf && d <= limit {
		for v := dst; v != -1; v = int(s.scratch.parent[v]) {
			path = append(path, v)
		}
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
	}
	s.scratch.reset()
	if path != nil {
		return path, d, true
	}
	return nil, Inf, false
}

// DistanceWithinAvoiding is DistanceWithin on the graph g minus one
// occurrence of edge avoid: it reports the shortest src–dst distance that
// uses at most limit weight and does not traverse the avoided edge, and
// (Inf, false) when no such path exists. Parallel copies of avoid (same
// endpoints and weight) remain usable, matching Graph.WithoutEdge
// semantics — but without materializing the reduced graph, which is what
// makes an O(m)-allocation VerifySelfSpanner sweep possible.
func (s *Searcher) DistanceWithinAvoiding(g *Graph, src, dst int, limit float64, avoid Edge) (float64, bool) {
	if src == dst {
		return 0, true
	}
	g.dijkstraAvoiding(src, dst, limit, avoid, s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	if d <= limit {
		return d, true
	}
	return Inf, false
}

// mark sets the failure marks for dead and returns the mask; the caller
// must call unmark with the same slice before returning.
func (s *Searcher) mark(dead []int) []bool {
	if s.masked == nil {
		s.masked = make([]bool, s.n)
	}
	for _, v := range dead {
		s.masked[v] = true
	}
	return s.masked
}

func (s *Searcher) unmark(dead []int) {
	for _, v := range dead {
		s.masked[v] = false
	}
}

// DistanceWithinMasked is DistanceWithin on the graph g minus every edge
// incident to a vertex in dead (vertex failures): it reports the shortest
// src–dst distance that uses at most limit weight and avoids all dead
// vertices, and (Inf, false) when no such path exists. The dead vertices
// themselves remain in the vertex set, matching a materialized copy with
// their incident edges removed — but without building that copy, which is
// what lets the fault-tolerant paths probe every fault set allocation-free
// instead of cloning the graph once per set.
func (s *Searcher) DistanceWithinMasked(g *Graph, src, dst int, limit float64, dead []int) (float64, bool) {
	if src == dst {
		return 0, true
	}
	masked := s.mark(dead)
	g.dijkstraMasked(src, dst, limit, masked, s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	s.unmark(dead)
	if d <= limit {
		return d, true
	}
	return Inf, false
}

// BoundedDistancesMasked computes single-source shortest-path distances
// from src in g minus every edge incident to a vertex in dead, filling dst
// (length n) with the result. Vertices beyond limit — and every dead
// vertex other than src itself, which keeps distance 0 exactly as in the
// materialized masked copy — keep Inf. One call answers every surviving
// pair out of src for one fault set, the access pattern of
// VerifyFaultTolerance.
func (s *Searcher) BoundedDistancesMasked(g *Graph, src int, limit float64, dead []int, dst []float64) {
	masked := s.mark(dead)
	g.dijkstraMasked(src, -1, limit, masked, s.scratch)
	copy(dst, s.scratch.dist)
	s.scratch.reset()
	s.unmark(dead)
}

// Distances computes single-source shortest-path distances from src in g,
// filling dst (length n) with the result. Unreachable vertices get Inf.
func (s *Searcher) Distances(g *Graph, src int, dst []float64) {
	g.dijkstra(src, -1, Inf, s.scratch)
	copy(dst, s.scratch.dist)
	s.scratch.reset()
}

// BoundedDistances is Distances with a search limit: vertices beyond limit
// keep Inf.
func (s *Searcher) BoundedDistances(g *Graph, src int, limit float64, dst []float64) {
	g.dijkstra(src, -1, limit, s.scratch)
	copy(dst, s.scratch.dist)
	s.scratch.reset()
}
