package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// This file is the state-transfer boundary of the maintained spanner: it
// exports the IncrementalSpanner into a flat, validated SpannerState and
// imports one back, so internal/persist can serialize maintained spanners
// without reaching into engine internals. The durability invariant: an
// imported spanner is update-for-update bit-identical to the exported one
// — same result digest, same accepted sequence after any further update
// stream. In metric mode that needs only the surviving input and the
// result, because every flush is a from-scratch build; graph mode also
// carries the hub set with its distance arrays, which its replays rebase.
// Scratch state (searchers, queued repairs) is deliberately NOT exported:
// it is rebuilt empty on import.

// ResultDigest is the order-sensitive FNV-1a digest of a Result used by
// the trace, persistence, and crash-recovery suites to compare spanners
// for bit-identity: it covers N, EdgesExamined, the Weight bits, and every
// edge's endpoints and weight bits in acceptance order.
func ResultDigest(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(res.N))
	put(uint64(res.EdgesExamined))
	put(math.Float64bits(res.Weight))
	for _, e := range res.Edges {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.W))
	}
	return h.Sum64()
}

// MetricKind identifies how a metric-mode SpannerState stores its point
// data.
type MetricKind uint8

const (
	// MetricNone marks a graph-mode state (no metric payload).
	MetricNone MetricKind = iota
	// MetricEuclidean stores the live points' coordinates; distances are
	// recomputed on import by the same L2 evaluation and are bit-identical.
	MetricEuclidean
	// MetricMatrix stores the live points' full pairwise distance matrix
	// (the fallback for any Metric implementation, +Inf entries included).
	MetricMatrix
)

// SpannerState is the flattened, serializable form of an
// IncrementalSpanner with no pending operations. All ids are dense: the
// i-th surviving point in metric mode, vertex ids in graph mode.
type SpannerState struct {
	T         float64
	GraphMode bool
	Policy    IncrementalPolicy

	// Metric mode: the surviving points' metric data, in dense order.
	MetricKind MetricKind
	N          int       // number of surviving points
	Dim        int       // MetricEuclidean: ambient dimension
	Coords     []float64 // MetricEuclidean: N*Dim, point-major
	Matrix     []float64 // MetricMatrix: N^2, row-major

	// Graph mode: the maintained input graph.
	GraphN     int
	GraphEdges []graph.Edge

	// The maintained result: the accepted edge sequence in scan order, its
	// ordered weight sum, and the examined-candidate count.
	Edges         []graph.Edge
	Weight        float64
	EdgesExamined int

	// Graph-mode hub oracle state (empty Hubs = oracle disabled): the hub
	// vertex set and each hub's exact distance array over the maintained
	// spanner (length GraphN), synced to all of Edges.
	Hubs    []int
	HubRows [][]float64
}

// GraphMode reports whether the spanner maintains a graph input
// (InsertEdges/DeleteEdges) rather than a metric one (Insert/Delete).
func (s *IncrementalSpanner) GraphMode() bool { return s.g != nil }

// LiveN reports the current number of live elements: surviving points in
// metric mode, vertices in graph mode. Unlike Result it never flushes.
func (s *IncrementalSpanner) LiveN() int {
	if s.g != nil {
		return s.g.N()
	}
	return s.m.N()
}

// Stretch reports the maintained spanner's stretch factor t.
func (s *IncrementalSpanner) Stretch() float64 { return s.t }

// Policy reports the installed batching policy.
func (s *IncrementalSpanner) Policy() IncrementalPolicy { return s.policy }

// ExportState flushes any pending updates and returns the spanner's full
// maintained state in serializable form. The returned state shares no
// mutable storage with the spanner; it remains valid after further
// updates. A flush error aborts the export with the pre-flush state
// preserved (see Flush).
func (s *IncrementalSpanner) ExportState() (*SpannerState, error) {
	if err := s.Flush(); err != nil {
		return nil, fmt.Errorf("core: export aborted: %w", err)
	}
	st := &SpannerState{
		T:             s.t,
		GraphMode:     s.g != nil,
		Policy:        s.policy,
		Weight:        s.res.Weight,
		EdgesExamined: s.res.EdgesExamined,
	}
	st.Edges = append([]graph.Edge(nil), s.res.Edges...)
	if s.g != nil {
		st.GraphN = s.g.N()
		st.GraphEdges = s.g.EdgesCopy()
		if s.oracle != nil {
			// Quiesce the oracle so the exported arrays are exact on the
			// full maintained spanner.
			s.oracle.sync()
			st.Hubs = append([]int(nil), s.oracle.hubs...)
			st.HubRows = make([][]float64, len(s.oracle.rows))
			for i, row := range s.oracle.rows {
				st.HubRows[i] = append([]float64(nil), row...)
			}
		}
		return st, nil
	}
	n := s.m.N()
	st.N = n
	if eu, ok := s.m.(*metric.Euclidean); ok && n > 0 {
		st.MetricKind = MetricEuclidean
		st.Dim = eu.Dim()
		st.Coords = make([]float64, 0, n*st.Dim)
		for i := 0; i < n; i++ {
			st.Coords = append(st.Coords, eu.Point(i)...)
		}
		return st, nil
	}
	st.MetricKind = MetricMatrix
	st.Matrix = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := s.m.Dist(i, j)
			st.Matrix[i*n+j] = w
			st.Matrix[j*n+i] = w
		}
	}
	return st, nil
}

// corrupt builds the import layer's validation error; every path wraps
// ErrCorruptState so callers can test with errors.Is.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("core: import: "+format+": %w", append(args, ErrCorruptState)...)
}

// validateEdges checks an accepted-edge sequence: endpoints in range,
// canonical orientation, weights in [0, +Inf), and scan order
// (non-decreasing in graph.EdgeLess, the order Flush's prefix search
// assumes).
func validateEdges(edges []graph.Edge, n int) error {
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return corrupt("accepted edge %d endpoints (%d, %d) out of range [0, %d)", i, e.U, e.V, n)
		}
		if e.U >= e.V {
			return corrupt("accepted edge %d (%d, %d) not in canonical order", i, e.U, e.V)
		}
		if !(e.W > 0) || math.IsInf(e.W, 1) {
			// Accepted weights are strictly positive and finite: a +Inf
			// candidate always fails its distance test, and a zero-weight
			// one is rejected by the graph layer the scan accepts into.
			return corrupt("accepted edge %d has weight %v outside (0, +Inf)", i, e.W)
		}
		if i > 0 && graph.EdgeLess(e, edges[i-1]) {
			return corrupt("accepted edge %d out of scan order", i)
		}
	}
	return nil
}

// ImportIncremental reconstructs a maintained spanner from an exported
// state. The metric-mode engine options come from mopts and the
// graph-mode ones from gopts (whichever matches st.GraphMode applies;
// Source and Materialize are rejected as in the constructors, and
// in graph mode opts.Hubs is ignored — the hub set, like everything else,
// comes from the state). The imported spanner is update-for-update
// bit-identical to the exported one. Validation is structural and O(state
// size): every index, length, and weight sum is checked and a violation
// returns an error wrapping ErrCorruptState; it does not re-verify distances against
// the metric payload (the persistence layer's digests own byte integrity).
func ImportIncremental(st *SpannerState, mopts MetricParallelOptions, gopts ParallelOptions) (*IncrementalSpanner, error) {
	if st == nil {
		return nil, corrupt("nil state")
	}
	if !validStretch(st.T) {
		return nil, errInvalidStretch(st.T)
	}
	if mopts.Source != nil || mopts.Materialize || gopts.Source != nil || gopts.Materialize {
		return nil, errSupplyOption
	}
	if st.GraphMode {
		return importGraph(st, gopts)
	}
	return importMetric(st, mopts)
}

func importGraph(st *SpannerState, opts ParallelOptions) (*IncrementalSpanner, error) {
	if st.GraphN < 0 {
		return nil, corrupt("negative vertex count %d", st.GraphN)
	}
	g := graph.New(st.GraphN)
	for i, e := range st.GraphEdges {
		if err := g.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, corrupt("graph edge %d: %v", i, err)
		}
	}
	if err := validateEdges(st.Edges, st.GraphN); err != nil {
		return nil, err
	}
	s := &IncrementalSpanner{t: st.T, g: g, gopts: opts, policy: st.Policy}
	for _, e := range s.g.Edges() {
		s.counts.add(e.W)
	}
	if err := s.importResult(st, st.GraphN); err != nil {
		return nil, err
	}
	if err := s.importOracle(st, st.GraphN); err != nil {
		return nil, err
	}
	return s, nil
}

func importMetric(st *SpannerState, opts MetricParallelOptions) (*IncrementalSpanner, error) {
	n := st.N
	if n < 0 {
		return nil, corrupt("negative point count %d", n)
	}
	var m metric.Metric
	switch st.MetricKind {
	case MetricEuclidean:
		if st.Dim <= 0 || len(st.Coords) != n*st.Dim {
			return nil, corrupt("%d coordinates, want %d points x dim %d", len(st.Coords), n, st.Dim)
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = st.Coords[i*st.Dim : (i+1)*st.Dim]
		}
		eu, err := metric.NewEuclidean(pts)
		if err != nil {
			return nil, corrupt("points: %v", err)
		}
		m = eu
	case MetricMatrix:
		fm, err := metric.NewFlatMatrix(n, st.Matrix)
		if err != nil {
			return nil, corrupt("matrix: %v", err)
		}
		m = fm
	default:
		return nil, corrupt("metric payload kind %d unknown", st.MetricKind)
	}
	if len(st.Hubs) != 0 || len(st.HubRows) != 0 {
		return nil, corrupt("metric state carries %d hubs; metric flushes select their own", len(st.Hubs))
	}
	if err := validateEdges(st.Edges, n); err != nil {
		return nil, err
	}
	s := &IncrementalSpanner{t: st.T, m: m, mopts: opts, policy: st.Policy}
	if err := s.importResult(st, n); err != nil {
		return nil, err
	}
	return s, nil
}

// importResult installs the maintained result, re-accumulating the weight
// sum in acceptance order (the exact float64 additions a scan performs)
// and cross-checking it against the stored sum.
func (s *IncrementalSpanner) importResult(st *SpannerState, n int) error {
	res := &Result{N: n, Stretch: st.T, EdgesExamined: st.EdgesExamined}
	if st.EdgesExamined < 0 {
		return corrupt("negative examined count %d", st.EdgesExamined)
	}
	res.Edges = append([]graph.Edge(nil), st.Edges...)
	for _, e := range res.Edges {
		res.Weight += e.W
	}
	if math.Float64bits(res.Weight) != math.Float64bits(st.Weight) {
		return corrupt("weight sum %v does not reproduce stored %v", res.Weight, st.Weight)
	}
	s.res = res
	return nil
}

// importOracle installs the graph-mode hub oracle: a NewHubOracle over
// the state's hub set, attached to the spanner rebuilt from the accepted
// edges, with the state's arrays and epoch installed. An exported oracle
// is always synced, so its arrays are exact on all the accepted edges.
func (s *IncrementalSpanner) importOracle(st *SpannerState, n int) error {
	if len(st.Hubs) == 0 {
		if len(st.HubRows) != 0 {
			return corrupt("%d hub rows without hubs", len(st.HubRows))
		}
		return nil
	}
	if len(st.HubRows) != len(st.Hubs) {
		return corrupt("%d hub rows for %d hubs", len(st.HubRows), len(st.Hubs))
	}
	seen := make(map[int]bool, len(st.Hubs))
	for i, hv := range st.Hubs {
		if hv < 0 || hv >= n {
			return corrupt("hub %d vertex %d out of range [0, %d)", i, hv, n)
		}
		if seen[hv] {
			return corrupt("hub vertex %d listed twice", hv)
		}
		seen[hv] = true
	}
	o := NewHubOracle(append([]int(nil), st.Hubs...), s.res.Graph(), 0)
	for i, row := range st.HubRows {
		if len(row) != n {
			return corrupt("hub row %d has %d entries, want %d", i, len(row), n)
		}
		for v, x := range row {
			if math.IsNaN(x) || x < 0 {
				return corrupt("hub row %d entry %d is not a distance", i, v)
			}
		}
		copy(o.rows[i], row)
	}
	o.epoch, o.live = len(st.Edges), len(st.Edges)
	s.oracle = o
	return nil
}
