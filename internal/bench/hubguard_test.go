package bench

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// TestHubRegressionGuardMetricN4000 is the regression gate for the
// hub-label certification fast path: on the n=4000 Euclidean acceptance
// instance the oracle must carry at least half of the certification load
// (hub-certified skips / all skips) and the output must be bit-identical
// to the serial cached-bound reference, EdgesExamined included. A
// selection or maintenance regression that silently starves the oracle
// shows up here as a hit-share collapse long before anyone reads a
// benchmark. Gated behind HUB_GUARD=1 because the two n=4000 builds take
// seconds; CI runs it as a dedicated step.
func TestHubRegressionGuardMetricN4000(t *testing.T) {
	if os.Getenv("HUB_GUARD") != "1" {
		t.Skip("set HUB_GUARD=1 to run the n=4000 hub-certification guard")
	}
	const n = 4000
	rng := rand.New(rand.NewSource(42))
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	base, err := core.GreedyMetricFastSerial(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var stats core.MetricParallelStats
	res, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.MetricParallelOptions{
		Workers: 1, Hubs: core.DefaultHubs(n), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(base, res) || base.EdgesExamined != res.EdgesExamined {
		t.Fatalf("hub run output differs from the serial reference")
	}
	skips := stats.HubSkips + stats.CertifiedSkips + stats.SerialSkips
	share := float64(stats.HubSkips) / float64(skips)
	t.Logf("digest %016x; hub share %.1f%% (hubSkips %d of %d skips), hit rate %.1f%%, %d accepts (%d by the hub lower bound)",
		core.ResultDigest(res), 100*share, stats.HubSkips, skips,
		100*float64(stats.HubSkips)/float64(stats.HubQueries), stats.Kept, stats.HubAccepts)
	if share < 0.5 {
		t.Fatalf("hub-certified skip fraction %.3f below the 0.5 regression floor", share)
	}
}
