package core

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// tieGraphs builds the families whose greedy decisions tie: integer
// weights on a lattice with diagonals and on an Erdős–Rényi graph (at
// t = 2 and 3 many alternative paths sum to exactly t·w), and
// Erdős–Rényi weights that are multiples of 0.1 (sums like 0.1+0.2 land
// an ulp off 0.3, so paths tie t·w up to rounding only).
func tieGraphs(rng *rand.Rand) map[string]*graph.Graph {
	const side = 12
	lattice := graph.New(side * side)
	id := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				lattice.MustAddEdge(id(x, y), id(x+1, y), float64(1+rng.Intn(3)))
			}
			if y+1 < side {
				lattice.MustAddEdge(id(x, y), id(x, y+1), float64(1+rng.Intn(3)))
			}
			if x+1 < side && y+1 < side {
				lattice.MustAddEdge(id(x, y), id(x+1, y+1), float64(2+rng.Intn(3)))
			}
		}
	}
	reweight := func(g *graph.Graph, w func() float64) *graph.Graph {
		edges := g.EdgesCopy()
		for i := range edges {
			edges[i].W = w()
		}
		return g.Subgraph(edges)
	}
	er := gen.ErdosRenyi(rng, 120, 0.08, 1, 2)
	return map[string]*graph.Graph{
		"int-lattice": lattice,
		"int-er":      reweight(er, func() float64 { return float64(1 + rng.Intn(6)) }),
		"tenths-er":   reweight(er, func() float64 { return float64(1+rng.Intn(30)) * 0.1 }),
	}
}

// referenceTies replays GreedyGraph's scan and counts the candidates whose
// one-sided reference distance equals t·w exactly and those within a
// relative 1e-9 of it without being equal: the inputs on which a
// primitive summing in another order could decide differently.
func referenceTies(g *graph.Graph, t float64) (exact, near int) {
	h := graph.New(g.N())
	search := graph.NewSearcher(g.N())
	for _, e := range g.SortedEdges() {
		limit := t * e.W
		d, ok := search.DistanceWithin(h, e.U, e.V, limit*(1+1e-9))
		switch {
		case ok && d == limit:
			exact++
		case ok && math.Abs(d-limit) <= 1e-9*limit:
			near++
		}
		if !ok || d > limit {
			h.MustAddEdge(e.U, e.V, e.W)
		}
	}
	return exact, near
}

// TestGreedyGraphParallelTies asserts bit-identity with GreedyGraph on
// tie-heavy inputs across worker counts and with and without hubs: every
// fast primitive (hub upper and lower bounds, the decision search)
// leaves near-tie decisions to the one-sided reference, so exact and
// near-ulp ties decide as the serial scan does.
func TestGreedyGraphParallelTies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	exactTies, nearTies := 0, 0
	for name, g := range tieGraphs(rng) {
		for _, stretch := range []float64{2, 3} {
			exact, near := referenceTies(g, stretch)
			exactTies += exact
			nearTies += near
			ref, err := GreedyGraph(g, stretch)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, hubs := range []int{0, DefaultHubs(g.N())} {
					var st ParallelStats
					got, err := GreedyGraphParallelOpts(g, stretch, ParallelOptions{Workers: workers, Hubs: hubs, Stats: &st})
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, name, ref, got)
					if hubs == 0 && st.HubAccepts != 0 {
						t.Fatalf("%s: %d hub accepts without hubs", name, st.HubAccepts)
					}
				}
			}
		}
	}
	t.Logf("%d exact and %d near-ulp reference ties", exactTies, nearTies)
	// The families must actually contain both kinds of tie, or the test
	// proves nothing.
	if exactTies == 0 || nearTies == 0 {
		t.Fatalf("tie families hold %d exact and %d near-ulp ties; want both > 0", exactTies, nearTies)
	}
}

// hubLowerBound is the oracle's lower bound on delta_H(u, v) from its
// current rows: max over hubs of |d(h,u) − d(h,v)|, and +Inf when a hub
// reaches exactly one of the two.
func hubLowerBound(o *HubOracle, u, v int) float64 {
	lb := 0.0
	for _, row := range o.rows {
		du, dv := row[u], row[v]
		switch {
		case du == dv:
		case du == graph.Inf || dv == graph.Inf:
			return graph.Inf
		default:
			lb = max(lb, math.Abs(du-dv))
		}
	}
	return lb
}

// checkLowerBounds syncs the oracle and checks random pairs of the live
// spanner h: the hub lower bound never exceeds the Dijkstra distance (up
// to summation rounding), and Separates never claims a limit the
// one-sided reference search would meet. It returns how many probes
// Separates proved.
func checkLowerBounds(t *testing.T, rng *rand.Rand, o *HubOracle, h *graph.Graph, pairs int) int {
	t.Helper()
	o.sync()
	n := h.N()
	search := graph.NewSearcher(n)
	proved := 0
	for i := 0; i < pairs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		d := h.DijkstraTo(u, v)
		lb := hubLowerBound(o, u, v)
		if d < graph.Inf && lb > d*(1+1e-12) {
			t.Fatalf("(%d,%d): hub lower bound %v exceeds distance %v", u, v, lb, d)
		}
		for _, limit := range []float64{d, lb, lb * (1 - 1e-15), lb * 0.99, lb / 2, d / 2} {
			if limit < 0 || math.IsInf(limit, 0) || math.IsNaN(limit) {
				continue
			}
			if !o.Separates(u, v, limit) {
				continue
			}
			proved++
			if dd, ok := search.DistanceWithin(h, u, v, limit); ok {
				t.Fatalf("(%d,%d): Separates at limit %v, but the reference finds %v", u, v, limit, dd)
			}
		}
	}
	return proved
}

// TestHubLowerBoundSound is the property test of the hub lower bound:
// after every sync — at every position of a fresh greedy scan (from the
// edgeless spanner, where most pairs are disconnected, on), and after
// graph-mode insert and delete rebases — the bound stays at or below the
// Dijkstra distance and Separates agrees with the reference search.
func TestHubLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	proved := 0
	graphs := tieGraphs(rng)
	graphs["float-er"] = gen.ErdosRenyi(rng, 80, 0.1, 0.5, 10)
	for name, g := range graphs {
		ref, err := GreedyGraph(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.New(g.N())
		o := NewHubOracle(SelectGraphHubs(g, 6), h, 0)
		proved += checkLowerBounds(t, rng, o, h, 20)
		for _, e := range ref.Edges {
			h.MustAddEdge(e.U, e.V, e.W)
			o.OnAccept(e)
			proved += checkLowerBounds(t, rng, o, h, 4)
		}
		t.Logf("%s: %d accepted edges checked", name, len(ref.Edges))
	}

	// Graph-mode rebases: inserts and deletes rebase the oracle onto the
	// preserved prefix before the replay.
	g := gen.ErdosRenyi(rng, 60, 0.2, 0.5, 10)
	edges := g.EdgesCopy()
	held := edges[len(edges)-10:]
	base := g.Subgraph(edges[:len(edges)-10])
	for _, workers := range []int{1, 2} {
		inc, err := NewIncrementalGraph(base, 2, ParallelOptions{Workers: workers, Hubs: 5})
		if err != nil {
			t.Fatal(err)
		}
		doomed := rng.Perm(len(edges) - len(held))
		for i, e := range held {
			if err := inc.InsertEdges(e); err != nil {
				t.Fatal(err)
			}
			proved += checkLowerBounds(t, rng, inc.oracle, mustResult(t, inc).Graph(), 40)
			if i%3 == 2 {
				if err := inc.DeleteEdges(edges[doomed[i]]); err != nil {
					t.Fatal(err)
				}
				proved += checkLowerBounds(t, rng, inc.oracle, mustResult(t, inc).Graph(), 40)
			}
		}
	}
	t.Logf("%d separations proved", proved)
	if proved == 0 {
		t.Fatal("Separates never proved a probe; the test is vacuous")
	}
}

// TestHubAcceptsFireOnCertify pins the fault-injection windows of the
// two-sided certification: the OnCertify hook fires once for every
// candidate the hub upper bound did not certify in the batched scan's
// phase 1, and again for every phase-2 survivor before its lower-bound
// or search decision; the serial path fires it for every
// candidate. A panic injected at the last certification of an accepted
// edge — a lower-bound accept for about a third of them — must abort the
// build with exactly the accepts before it committed.
func TestHubAcceptsFireOnCertify(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.ErdosRenyi(rng, 300, 0.1, 0.5, 10)
	hubs := DefaultHubs(g.N())
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		perEdge := make(map[graph.Edge]int)
		calls := 0
		var st ParallelStats
		ref, err := GreedyGraphParallelOpts(g, 3, ParallelOptions{
			Workers: workers, Hubs: hubs, Stats: &st,
			Inject: InjectionHooks{OnCertify: func(e graph.Edge) {
				mu.Lock()
				perEdge[e]++
				calls++
				mu.Unlock()
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.HubAccepts == 0 {
			t.Fatalf("workers=%d: no hub lower-bound accepts; the test is vacuous", workers)
		}
		want := ref.EdgesExamined
		if workers > 1 {
			want = st.HubQueries - st.HubSkips + st.Kept + st.SerialSkips
		}
		if calls != want {
			t.Fatalf("workers=%d: OnCertify fired %d times, want %d", workers, calls, want)
		}

		for j := 0; j < len(ref.Edges); j += len(ref.Edges)/16 + 1 {
			target, k := ref.Edges[j], perEdge[ref.Edges[j]]
			var n atomic.Int64
			partial, err := GreedyGraphParallelOpts(g, 3, ParallelOptions{
				Workers: workers, Hubs: hubs,
				Inject: InjectionHooks{OnCertify: func(e graph.Edge) {
					if e == target && n.Add(1) == int64(k) {
						panic("injected")
					}
				}},
			})
			if !errors.Is(err, ErrEnginePanic) || !partial.Partial {
				t.Fatalf("workers=%d edge %d: injected panic gave err %v", workers, j, err)
			}
			if len(partial.Edges) != j {
				t.Fatalf("workers=%d: panic at accept %d committed %d accepts", workers, j, len(partial.Edges))
			}
			for i, e := range partial.Edges {
				if e != ref.Edges[i] {
					t.Fatalf("workers=%d: partial edge %d is %v, want %v", workers, i, e, ref.Edges[i])
				}
			}
		}
	}
}
