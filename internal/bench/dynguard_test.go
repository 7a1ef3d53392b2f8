package bench

import (
	"context"
	"os"
	"testing"
)

// TestDynamicRegressionGuardN4000 is the regression gate for the fully
// dynamic maintained spanner: on the n=4000 Euclidean acceptance instance
// the amortized per-operation cost of the insert-only, delete-only, and
// mixed 80/10/10 workloads must each beat the rebuild-per-op policy by at
// least 5x, and every workload's final spanner must be edge-for-edge
// identical to the from-scratch build on its survivors. A flush that
// starts costing more than one rebuild, or a batch or coalesced run that
// stops sharing one flush, shows up here as a speedup collapse long
// before anyone reads a benchmark. Gated behind DYN_GUARD=1 because the n=4000 workloads take a
// couple of minutes; CI runs it as a dedicated step.
func TestDynamicRegressionGuardN4000(t *testing.T) {
	if os.Getenv("DYN_GUARD") != "1" {
		t.Skip("set DYN_GUARD=1 to run the n=4000 dynamic maintenance guard")
	}
	const floor = 5.0
	_, report, err := DynamicBench(context.Background(), Full, 42, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var guard *DynamicBenchCase
	for i := range report.Cases {
		if report.Cases[i].N == 4000 {
			guard = &report.Cases[i]
		}
	}
	if guard == nil {
		t.Fatalf("full-scale dynamic benchmark produced no n=4000 case")
	}
	if !guard.Identical {
		t.Fatalf("n=4000 maintained spanner diverged from the from-scratch build on its survivors")
	}
	t.Logf("n=4000 rebuild %.1f ms/op; speedups: insert %.1fx, delete %.1fx, mixed %.1fx",
		guard.RebuildMedianMS, guard.InsertOpSpeedup, guard.DeleteOpSpeedup, guard.MixedOpSpeedup)
	for _, s := range []struct {
		name    string
		speedup float64
	}{
		{"insert-only", guard.InsertOpSpeedup},
		{"delete-only", guard.DeleteOpSpeedup},
		{"mixed-80/10/10", guard.MixedOpSpeedup},
	} {
		if s.speedup < floor {
			t.Errorf("%s per-op speedup %.2fx below the %.0fx regression floor", s.name, s.speedup, floor)
		}
	}
}
