package persist

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
)

// TestRecoverLongWalOneFlush writes a 64-record WAL that mixes point
// insertions, point deletions, logged flushes and policy changes, then
// recovers it: Open plus the first Result must run exactly one metric
// build, counted as batch-0 OnBatch calls (no clock involved), and the
// recovered digest must equal GreedyMetricFastParallelOpts on the
// surviving points. It covers Euclidean and matrix states, and a final
// policy that flushes at Open (eager) as well as one that leaves the
// flush to the first query (coalescing).
func TestRecoverLongWalOneFlush(t *testing.T) {
	for _, euclid := range []bool{true, false} {
		for _, eagerEnd := range []bool{true, false} {
			t.Run(fmt.Sprintf("euclid=%v/eager-end=%v", euclid, eagerEnd), func(t *testing.T) {
				recoverLongWal(t, euclid, eagerEnd)
			})
		}
	}
}

func recoverLongWal(t *testing.T, euclid, eagerEnd bool) {
	const records = 64
	rng := rand.New(rand.NewSource(71))
	var builds atomic.Int64
	mopts := core.MetricParallelOptions{Workers: 2, Hubs: 3}
	counted := mopts
	counted.Inject = core.InjectionHooks{OnBatch: func(batch int) {
		if batch == 0 {
			builds.Add(1)
		}
	}}

	// The live points: coordinates in the Euclidean state, universe ids of
	// the +Inf-holed matrix universe otherwise.
	var pts [][]float64
	var ids []int
	next := 0
	fresh := func(k int) {
		for ; k > 0; k-- {
			pts = append(pts, []float64{rng.Float64() * 20, rng.Float64() * 20})
			ids = append(ids, next)
			next++
		}
	}
	survivors := func() metric.Metric {
		if euclid {
			return mustEuclid(t, append([][]float64(nil), pts...))
		}
		return uniMetric{append([]int(nil), ids...)}
	}
	fresh(12)
	inc, err := core.NewIncrementalMetric(survivors(), 1.6, mopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := Create(dir, inc, Options{Metric: mopts})
	if err != nil {
		t.Fatal(err)
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("op %d %s: %v", d.OpSeq(), what, err)
		}
	}
	insert := func() {
		n := len(pts)
		fresh(1 + rng.Intn(2))
		if euclid {
			must("insert-points", d.AppendPoints(pts[n:]))
		} else {
			must("insert-matrix", d.Insert(survivors()))
		}
	}
	remove := func() {
		dense := rng.Perm(len(pts))[:1+rng.Intn(2)]
		must("delete-points", d.Delete(dense...))
		gone := make(map[int]bool, len(dense))
		for _, p := range dense {
			gone[p] = true
		}
		var keptPts [][]float64
		var keptIDs []int
		for i := range pts {
			if !gone[i] {
				keptPts, keptIDs = append(keptPts, pts[i]), append(keptIDs, ids[i])
			}
		}
		pts, ids = keptPts, keptIDs
	}
	policies := []core.IncrementalPolicy{
		{},
		{CoalesceUntilQuery: true},
		{MinBatch: 3},
		{CoalesceUntilQuery: true, MinBatch: 5},
	}
	// The first three records pin one logged policy and one logged flush;
	// then random records up to four before the end, a final policy, and
	// three mutations under it.
	must("policy", d.SetPolicy(policies[1]))
	insert()
	must("flush", d.Flush())
	for d.OpSeq() < records-4 {
		switch r := rng.Intn(10); {
		case r < 4 || len(pts) < 8:
			insert()
		case r < 7:
			remove()
		case r < 8:
			if d.Spanner().Pending() > 0 {
				must("flush", d.Flush())
			}
		default:
			must("policy", d.SetPolicy(policies[rng.Intn(len(policies))]))
		}
	}
	final := policies[1]
	if eagerEnd {
		final = policies[0]
	}
	must("policy", d.SetPolicy(final))
	insert()
	remove()
	insert()
	if d.OpSeq() != records {
		t.Fatalf("wrote %d records, want %d", d.OpSeq(), records)
	}
	live := mustDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	builds.Store(0)
	d2, err := Open(dir, Options{Metric: counted})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	atOpen := builds.Load()
	got := mustDigest(t, d2)
	if n := builds.Load(); n != 1 {
		t.Fatalf("Open plus Result ran %d metric builds (%d during Open), want exactly 1", n, atOpen)
	}
	wantAtOpen := int64(0)
	if eagerEnd {
		wantAtOpen = 1 // the final eager policy flushes at Open
	}
	if atOpen != wantAtOpen {
		t.Fatalf("Open ran %d builds under final policy %+v, want %d", atOpen, final, wantAtOpen)
	}
	if d2.OpSeq() != records {
		t.Fatalf("recovered OpSeq %d, want %d", d2.OpSeq(), records)
	}
	ref, err := core.GreedyMetricFastParallelOpts(survivors(), 1.6, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.ResultDigest(ref); got != want || live != want {
		t.Fatalf("recovered digest %x, live %x, from-scratch build on the survivors %x", got, live, want)
	}
}
