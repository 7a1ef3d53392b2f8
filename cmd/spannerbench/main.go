// Command spannerbench runs the experiment suite E1–E10 (DESIGN.md) that
// reproduces every figure, corollary, and cited empirical claim of "The
// Greedy Spanner is Existentially Optimal" (Filtser & Solomon, PODC 2016),
// and prints the result tables.
//
// Usage:
//
//	spannerbench [-exp all|e1|...|e12|a1..a5|ablations|greedybench|greedymetricbench|pairstreambench|incrementalbench|dynamicbench|persistbench|servebench] [-scale small|full] [-seed N]
//
// The "full" scale is what EXPERIMENTS.md records; "small" finishes in a
// few seconds.
//
// -exp greedybench times the sequential greedy scan against the
// batched-parallel graph engine (repeated runs, median + spread, outputs
// compared edge-for-edge) and writes the machine-readable report to the
// -json path (default BENCH_greedy.json).
//
// -exp greedymetricbench does the same for the metric path: the serial
// cached-bound scan against the batched scan over the metric on
// Euclidean and graph-induced metrics, writing BENCH_greedymetric.json by
// default. -workers restricts its parallel sweep to one worker count
// (0 sweeps 1, 4, and GOMAXPROCS). Both engine benchmarks also record
// runtime.MemStats peak/total allocation per configuration.
//
// -exp pairstreambench isolates the candidate-supply ablation: the same
// metric engine fed by the materialized, globally sorted pair list vs the
// streamed weight-bucketed supply, with peak/total allocation recorded,
// writing BENCH_pairstream.json by default. -workers selects the engine
// worker count (default 1).
//
// -exp incrementalbench times the maintained incremental spanner against
// the rebuild-per-insert policy (one from-scratch build per inserted
// point): amortized per-insert cost, peak/total allocation for both,
// the coalescing policy's amortization of fine-grained insert streams,
// and edge-for-edge identity of the final spanner, writing
// BENCH_incremental.json by default. -workers selects the engine worker
// count (default 1).
//
// -exp dynamicbench times the fully dynamic maintained spanner against
// the rebuild-per-op policy (one from-scratch build at n per operation):
// insert-only and delete-only batches amortized over the updated points,
// and a mixed 80/10/10 query/insert/delete trace under the coalescing
// policy, with every final spanner checked edge-for-edge against the
// from-scratch build on its survivors, writing BENCH_dynamic.json by
// default. -workers selects the engine worker count (default 1).
//
// -exp hubbench times the hub-label certification fast path on the graph
// and metric acceptance instances — against the hubs-disabled graph scan
// and against the serial metric reference: wall-clock, exact searches
// avoided, hub hit rate and load share, maintenance cost, and peak/total
// allocation, with outputs compared edge-for-edge, writing BENCH_hub.json by
// default. -workers selects the engine worker count (default 1); -hubs
// overrides the enabled run's hub count (default: auto per instance).
//
// -exp persistbench times the durability layer: snapshot save (export +
// encode + atomic fsynced write), warm start from a snapshot versus a
// from-scratch build, the amortized cost of a logged fsynced dynamic
// operation, and a full recovery that replays a WAL tail, with every
// loaded and recovered spanner checked against the original result
// digest, writing BENCH_persist.json by default. -workers selects the
// engine worker count (default 1).
//
// -exp servebench measures spannerd's serving layer over live HTTP:
// read throughput and tail latency against the RCU snapshot, a mixed
// scenario with durable mutations republishing snapshots under live
// readers, and an overload scenario against a deliberately undersized
// admission configuration where excess load must be shed with typed
// 503s — a response outside {200, typed shed} anywhere is a failure.
// Writes BENCH_serve.json by default. -workers selects the engine
// worker count (default 1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	// SIGINT/SIGTERM cancel the benchmark context: the engine benchmarks
	// abort between repetitions (and mid-scan inside the parallel
	// engines), nothing partial is written, and any previous BENCH_*.json
	// is left intact because reports are written via temp file + rename.
	// After the first signal default handling is restored, so a second
	// signal kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "spannerbench: interrupted; partial results discarded, previous BENCH_*.json reports left intact")
		}
		fmt.Fprintln(os.Stderr, "spannerbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("spannerbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, e1..e12, a1..a5, ablations, greedybench, greedymetricbench, pairstreambench, incrementalbench, dynamicbench, hubbench, persistbench, servebench")
	scaleFlag := fs.String("scale", "small", "experiment scale: small or full")
	seed := fs.Int64("seed", 42, "random seed for workload generation")
	jsonPath := fs.String("json", "", "output path for the greedybench/greedymetricbench report (default BENCH_greedy.json / BENCH_greedymetric.json)")
	reps := fs.Int("reps", 3, "repetitions per timing in greedybench/greedymetricbench (min 3)")
	workers := fs.Int("workers", 0, "metric-path workers for greedymetricbench (0 = sweep 1, 4, GOMAXPROCS)")
	hubCount := fs.Int("hubs", 0, "hub count for hubbench's enabled run (<= 0 = auto per instance)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale bench.Scale
	switch strings.ToLower(*scaleFlag) {
	case "small":
		scale = bench.Small
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", *scaleFlag)
	}

	type runner func() (*bench.Table, error)
	runners := map[string]runner{
		"e1":  func() (*bench.Table, error) { return bench.E1Figure1() },
		"e2":  func() (*bench.Table, error) { return bench.E2GeneralGraphs(scale, *seed) },
		"e3":  func() (*bench.Table, error) { return bench.E3SelfSpanner(scale, *seed+1) },
		"e4":  func() (*bench.Table, error) { return bench.E4DoublingLightness(scale, *seed+2) },
		"e5":  func() (*bench.Table, error) { return bench.E5ApproxGreedy(scale, *seed+3) },
		"e6":  func() (*bench.Table, error) { return bench.E6Comparison(scale, *seed+4) },
		"e7":  func() (*bench.Table, error) { return bench.E7MSTContainment(scale, *seed+5) },
		"e8":  func() (*bench.Table, error) { return bench.E8LogStretch(scale, *seed+6) },
		"e9":  func() (*bench.Table, error) { return bench.E9UnboundedDegree(scale) },
		"e10": func() (*bench.Table, error) { return bench.E10Lemma11(scale, *seed+7) },
		"e11": func() (*bench.Table, error) { return bench.E11FaultTolerance(scale, *seed+10) },
		"e12": func() (*bench.Table, error) { return bench.E12GraphFamilies(scale, *seed+11) },
		"a1":  func() (*bench.Table, error) { return bench.A1Deputies(scale) },
		"a2":  func() (*bench.Table, error) { return bench.A2BucketWidth(scale, *seed+8) },
		"a3":  func() (*bench.Table, error) { return bench.A3Certification(scale, *seed+9) },
		"a4":  func() (*bench.Table, error) { return bench.A4ParallelBatchWidth(scale, *seed+12) },
		"a5":  func() (*bench.Table, error) { return bench.A5MetricBatchWidth(scale, *seed+13) },
	}

	// The engine benchmarks print their table and additionally write a
	// machine-readable JSON report.
	writeReport := func(defaultPath string, tab *bench.Table, report interface{ WriteJSON(string) error }, err error) error {
		if err != nil {
			return err
		}
		path := *jsonPath
		if path == "" {
			path = defaultPath
		}
		tab.Fprint(os.Stdout)
		if err := report.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "\nwrote %s\n", path)
		return nil
	}

	name := strings.ToLower(*exp)
	if name == "greedybench" {
		tab, report, err := bench.GreedyBench(ctx, scale, *seed, *reps)
		return writeReport("BENCH_greedy.json", tab, report, err)
	}
	if name == "greedymetricbench" {
		if *workers < 0 {
			return fmt.Errorf("-workers must be >= 0 (0 sweeps 1, 4, GOMAXPROCS)")
		}
		tab, report, err := bench.GreedyMetricBench(ctx, scale, *seed, *reps, *workers)
		return writeReport("BENCH_greedymetric.json", tab, report, err)
	}
	if name == "pairstreambench" {
		tab, report, err := bench.PairStreamBench(ctx, scale, *seed, *reps, *workers)
		return writeReport("BENCH_pairstream.json", tab, report, err)
	}
	if name == "incrementalbench" {
		tab, report, err := bench.IncrementalBench(ctx, scale, *seed, *reps, *workers)
		return writeReport("BENCH_incremental.json", tab, report, err)
	}
	if name == "dynamicbench" {
		tab, report, err := bench.DynamicBench(ctx, scale, *seed, *reps, *workers)
		return writeReport("BENCH_dynamic.json", tab, report, err)
	}
	if name == "hubbench" {
		tab, report, err := bench.HubBench(ctx, scale, *seed, *reps, *workers, *hubCount)
		return writeReport("BENCH_hub.json", tab, report, err)
	}
	if name == "persistbench" {
		tab, report, err := bench.PersistBench(ctx, scale, *seed, *reps, *workers)
		return writeReport("BENCH_persist.json", tab, report, err)
	}
	if name == "servebench" {
		tab, report, err := bench.ServeBench(ctx, scale, *seed, *workers)
		return writeReport("BENCH_serve.json", tab, report, err)
	}
	if name == "all" || name == "ablations" {
		var (
			tabs []*bench.Table
			err  error
		)
		if name == "all" {
			tabs, err = bench.All(scale, *seed)
			if err == nil {
				var abl []*bench.Table
				abl, err = bench.Ablations(scale, *seed+8)
				tabs = append(tabs, abl...)
			}
		} else {
			tabs, err = bench.Ablations(scale, *seed+8)
		}
		for _, t := range tabs {
			t.Fprint(os.Stdout)
		}
		return err
	}
	r, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, e1..e12, a1..a5, ablations, greedybench, greedymetricbench, pairstreambench, incrementalbench, dynamicbench, hubbench, persistbench, or servebench)", *exp)
	}
	tab, err := r()
	if err != nil {
		return err
	}
	tab.Fprint(os.Stdout)
	return nil
}
