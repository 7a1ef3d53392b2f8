// Package graph implements the weighted undirected graph substrate used by
// every spanner construction in this repository: adjacency-list graphs,
// Dijkstra variants (full, distance-bounded, target-pruned, and bounded
// bidirectional), breadth-first search, minimum spanning trees (Kruskal and
// Prim), a union-find structure, girth computation, second-shortest paths,
// and all-pairs shortest paths.
//
// Vertices are dense integers in [0, N()). Edge weights are positive
// float64s; all algorithms assume positive weights (shortest paths are
// well-defined and Dijkstra applies).
//
// The hot path of the greedy spanner engines is served by Searcher, which
// answers repeated distance queries and single-source rows over graphs of a
// fixed vertex count while reusing all internal scratch, so the per-query
// allocations of the convenience methods on Graph disappear from the main
// loops. Its BidirDistanceWithin grows bounded Dijkstra balls from both
// endpoints at once — two balls of radius ~limit/2 instead of one of radius
// limit — and serves exact distance reads; BidirDecideWithin is the same
// search stopped at the first path within the limit, the certification
// primitive of the batched-parallel greedy scan; its Distances fills a
// caller-owned row for single-source sweeps. A Searcher is not safe for
// concurrent use: parallel callers hold one Searcher per worker (the graph
// being queried may be shared read-only).
package graph
