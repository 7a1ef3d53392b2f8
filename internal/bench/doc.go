// Package bench drives the experiment suite E1–E12 defined in DESIGN.md —
// each experiment reproduces one figure, corollary, or cited empirical
// claim of the paper as a table of measurements — together with the
// ablations A1–A5 and the engine benchmarks. The same drivers back the
// testing.B benchmarks in the repository root and the cmd/spannerbench CLI.
//
// Three experiments follow the repeated-run benchmark discipline (timings
// measured >= 3 times, medians reported beside raw samples and spread,
// outputs compared edge-for-edge before any speedup is claimed, and
// runtime.MemStats peak/total allocation recorded in a dedicated
// non-timed pass per configuration):
//
//   - GreedyBench times the sequential greedy graph scan against the
//     batched-parallel graph engine and writes BENCH_greedy.json.
//   - GreedyMetricBench times the serial cached-bound metric scan against
//     the batched scan over the metric on Euclidean and graph-induced
//     metrics and writes BENCH_greedymetric.json, including the
//     materialized-vs-streamed peak-allocation ratio of the n=4000
//     acceptance case at Full scale.
//   - PairStreamBench isolates the candidate-supply ablation — the same
//     metric engine fed by the materialized, globally sorted pair list vs
//     the streamed weight-bucketed supply — and writes
//     BENCH_pairstream.json.
//
// The ablations A4 and A5 sweep the batch width of the graph and metric
// engines respectively; both must leave the spanner unchanged (the engines
// are deterministic in their tuning knobs), so their tables double as
// equivalence evidence.
package bench
