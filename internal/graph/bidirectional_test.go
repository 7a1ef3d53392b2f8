package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random weighted graph for query tests.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		if u > 0 {
			g.MustAddEdge(rng.Intn(u), u, 0.5+9.5*rng.Float64())
		}
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v, 0.5+9.5*rng.Float64())
			}
		}
	}
	return g
}

// near reports whether a and b agree up to summation-order rounding: the
// two searches add the same path weights in different orders, so results
// may differ in the last couple of ulps but no more.
func near(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}

// TestBidirDistanceWithinMatchesUnidirectional cross-checks the bounded
// bidirectional query against the one-sided DistanceWithin on random
// graphs, random pairs, and limits above and below the true distance.
// Limits are kept a relative 1% away from the true distance so that the
// accept/reject decision is well-separated from summation-order rounding;
// reported distances must then agree to ~ulp precision.
func TestBidirDistanceWithinMatchesUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []struct {
		n int
		p float64
	}{{30, 0.1}, {60, 0.05}, {60, 0.3}, {120, 0.02}} {
		g := randomGraph(rng, cfg.n, cfg.p)
		search := NewSearcher(cfg.n)
		for trial := 0; trial < 300; trial++ {
			u, v := rng.Intn(cfg.n), rng.Intn(cfg.n)
			exact := g.DijkstraTo(u, v)
			limits := []float64{Inf, exact * 1.5, exact * 1.01, exact * 0.99, exact * 0.5, 0}
			for _, limit := range limits {
				wantD, wantOK := g.DistanceWithin(u, v, limit)
				gotD, gotOK := search.BidirDistanceWithin(g, u, v, limit)
				if wantOK != gotOK || (wantOK && !near(wantD, gotD)) {
					t.Fatalf("n=%d p=%v (%d,%d) limit=%v: unidirectional (%v,%v) vs bidirectional (%v,%v)",
						cfg.n, cfg.p, u, v, limit, wantD, wantOK, gotD, gotOK)
				}
				// The allocating convenience method must agree exactly.
				gd, gok := g.BidirDistanceWithin(u, v, limit)
				if gok != gotOK || (gok && gd != gotD) {
					t.Fatalf("Graph.BidirDistanceWithin diverges from Searcher: (%v,%v) vs (%v,%v)", gd, gok, gotD, gotOK)
				}
			}
		}
	}
}

// TestBidirDistanceWithinDisconnected checks behaviour across components.
func TestBidirDistanceWithinDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	s := NewSearcher(4)
	if _, ok := s.BidirDistanceWithin(g, 0, 2, Inf); ok {
		t.Fatal("found a path between components")
	}
	if d, ok := s.BidirDistanceWithin(g, 0, 1, 1); !ok || d != 1 {
		t.Fatalf("adjacent pair: got (%v, %v)", d, ok)
	}
	if d, ok := s.BidirDistanceWithin(g, 0, 0, 0); !ok || d != 0 {
		t.Fatalf("self pair: got (%v, %v)", d, ok)
	}
}

// TestBidirectionalDistanceStillExact guards the pre-existing unbounded
// entry point after its refactor onto the shared scratch core.
func TestBidirectionalDistanceStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 80, 0.08)
	for trial := 0; trial < 200; trial++ {
		u, v := rng.Intn(80), rng.Intn(80)
		if got, want := g.BidirectionalDistance(u, v), g.DijkstraTo(u, v); !near(got, want) {
			t.Fatalf("(%d,%d): bidirectional %v, Dijkstra %v", u, v, got, want)
		}
	}
}

// TestBidirDecideWithinMatchesDistanceWithin is the differential test of
// the decision-only search against the one-sided reference. On float
// weights the limits stay a relative 1% away from the distance (the two
// searches may round differently at a tie); on integer weights every sum
// is exact, so the limits include d == limit exactly and its neighbors
// d ± 1, and the decision must match the reference there too. A "yes"
// must report the length of a real path: at least the distance and at
// most the limit.
func TestBidirDecideWithinMatchesDistanceWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	integer := func(n int, p float64) *Graph {
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustAddEdge(u, v, float64(1+rng.Intn(4)))
				}
			}
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		exact bool
	}{
		{"float-sparse", randomGraph(rng, 60, 0.05), false},
		{"float-dense", randomGraph(rng, 60, 0.3), false},
		{"float-large", randomGraph(rng, 150, 0.02), false},
		{"int-sparse", integer(60, 0.04), true},
		{"int-dense", integer(80, 0.15), true},
		{"int-disconnected", integer(80, 0.01), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			search := NewSearcher(n)
			for trial := 0; trial < 400; trial++ {
				u, v := rng.Intn(n), rng.Intn(n)
				exact := g.DijkstraTo(u, v)
				limits := []float64{Inf, 0, exact * 1.5, exact * 1.01, exact * 0.99, exact * 0.5}
				if tc.exact && exact < Inf && exact > 0 {
					limits = append(limits, exact, exact-1, exact+1)
				}
				for _, limit := range limits {
					// The reference reports (Inf, true) for an unreachable
					// pair at limit Inf; only a finite distance is a yes.
					wantD, wantOK := search.DistanceWithin(g, u, v, limit)
					wantOK = wantOK && wantD < Inf
					d, ok := search.BidirDecideWithin(g, u, v, limit)
					if ok != wantOK {
						t.Fatalf("(%d,%d) limit %v (distance %v): decide %v, reference %v", u, v, limit, exact, ok, wantOK)
					}
					if ok && (d > limit || (d < exact && !near(d, exact))) {
						t.Fatalf("(%d,%d) limit %v: decide reported length %v, distance %v", u, v, limit, d, exact)
					}
					if !ok && d != Inf {
						t.Fatalf("(%d,%d) limit %v: a no answer reported %v", u, v, limit, d)
					}
				}
			}
		})
	}
}
