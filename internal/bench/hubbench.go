package bench

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/persist"
)

// The hub benchmark quantifies the hub-label certification fast path. On
// the graph acceptance instance the batched scan is timed with hubs
// disabled (every certification pays an exact search) and with hubs
// enabled. A metric scan always runs with hubs — without them it would
// search almost all of its n(n-1)/2 pairs — so the metric case times it
// against the serial cached-bound reference (core.GreedyMetricFastSerial)
// instead. Outputs are compared edge-for-edge before any speedup is
// claimed; the report records hub hit rates, exact searches avoided, hub
// maintenance cost, and MemStats peak/total allocation, following the
// repeated-run discipline of the other engine benchmarks.

// HubBenchRun is the timing record for one configuration of a case.
type HubBenchRun struct {
	// Hubs is the oracle's hub count (0 = the baseline: the scan without
	// hubs on graphs, the serial reference on metrics).
	Hubs     int       `json:"hubs"`
	MS       []float64 `json:"ms"`
	MedianMS float64   `json:"median_ms"`
	// SpreadPct is (max-min)/median over the samples, in percent.
	SpreadPct float64 `json:"spread_pct"`
	// Speedup is the baseline median over this run's median.
	Speedup float64 `json:"speedup"`
	// ExactSearches counts the candidates the scan decided with an exact
	// search rather than the hub labels (0 for the serial reference,
	// which does not count its row refreshes).
	ExactSearches int `json:"exact_searches"`
	// HubQueries / HubSkips count certification queries that reached the
	// oracle and the skips it certified without any search; HubHitRate is
	// their ratio.
	HubQueries int     `json:"hub_queries,omitempty"`
	HubSkips   int     `json:"hub_skips,omitempty"`
	HubHitRate float64 `json:"hub_hit_rate,omitempty"`
	// HubCertifiedFraction is HubSkips over all certified skips — the
	// share of the certification load the oracle carries.
	HubCertifiedFraction float64 `json:"hub_certified_fraction,omitempty"`
	// HubRelaxed is the oracle's maintenance cost in re-relaxed entries.
	HubRelaxed int `json:"hub_relaxed,omitempty"`
	// PeakAllocBytes / TotalAllocBytes are from a dedicated non-timed
	// pass (see measureAlloc).
	PeakAllocBytes  uint64 `json:"peak_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Identical records edge-for-edge equality (EdgesExamined included)
	// with the baseline, every rep.
	Identical bool `json:"identical"`
}

// HubBenchCase is the report for one instance.
type HubBenchCase struct {
	// Kind is "graph" or "metric".
	Kind         string        `json:"kind"`
	N            int           `json:"n"`
	M            int           `json:"m,omitempty"`
	Stretch      float64       `json:"stretch"`
	SpannerEdges int           `json:"spanner_edges"`
	Runs         []HubBenchRun `json:"runs"`
	// SearchReduction is the baseline's ExactSearches over the hub run's.
	SearchReduction float64 `json:"search_reduction,omitempty"`
}

// HubBenchReport is the top-level BENCH_hub.json document.
type HubBenchReport struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Date       string         `json:"date"`
	Reps       int            `json:"reps"`
	Workers    int            `json:"workers"`
	Cases      []HubBenchCase `json:"cases"`
}

// HubBench times the graph scan with hubs off vs on, and the metric scan
// against the serial reference. workers selects the engine worker count
// (<= 0 uses 1, the acceptance configuration). hubs selects the enabled
// run's hub count (<= 0 picks core.DefaultHubs per instance). Small scale
// runs n=500 instances; Full runs the n=4000 acceptance instances.
func HubBench(ctx context.Context, scale Scale, seed int64, reps, workers, hubs int) (*Table, *HubBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title: "HUB-BENCH: hub-label certification fast path vs exact-search certification",
		Header: []string{"kind", "n", "hubs", "median ms", "spread %", "speedup",
			"exact searches", "hub hit %", "hub share %", "peak MB", "identical"},
		Caption: "graph hubs=0 is the scan without hubs (every certification pays an exact search);\n" +
			"metric hubs=0 is the serial cached-bound reference. With hubs, maintained landmark arrays\n" +
			"certify skips in O(k). Outputs are compared edge-for-edge; peak MB from a dedicated\n" +
			"non-timed pass.",
	}
	report := &HubBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}

	nMetric, nGraph := 500, 500
	graphP := 0.2
	if scale == Full {
		nMetric, nGraph = 4000, 4000
		graphP = 0.05
	}
	rng := rand.New(rand.NewSource(seed))
	hubCount := func(n int) int {
		if hubs <= 0 {
			return core.DefaultHubs(n)
		}
		return hubs
	}

	// Graph case: the acceptance ER instance at stretch 3.
	g := gen.ErdosRenyi(rng, nGraph, graphP, 0.5, 10)
	c := HubBenchCase{Kind: "graph", N: nGraph, M: g.M(), Stretch: 3}
	var base *core.Result
	for _, k := range []int{0, hubCount(nGraph)} {
		var stats core.ParallelStats
		opts := core.ParallelOptions{Workers: workers, Hubs: k, Stats: &stats, Ctx: ctx}
		run, last, err := timeHubRun(k, reps, base, func() (*core.Result, error) {
			return core.GreedyGraphParallelOpts(g, c.Stretch, opts)
		})
		if err != nil {
			return nil, nil, err
		}
		fillHubRun(&run, &stats)
		c.Runs = append(c.Runs, run)
		if base == nil {
			base = last
		}
	}
	c.SpannerEdges = base.Size()
	finishHubCase(&c, tab)
	report.Cases = append(report.Cases, c)

	// Metric case: the acceptance Euclidean instance at stretch 1.5.
	m := metric.MustEuclidean(gen.UniformPoints(rng, nMetric, 2))
	c = HubBenchCase{Kind: "metric", N: nMetric, Stretch: 1.5}
	run, base, err := timeHubRun(0, reps, nil, func() (*core.Result, error) {
		return core.GreedyMetricFastSerial(m, c.Stretch)
	})
	if err != nil {
		return nil, nil, err
	}
	c.Runs = append(c.Runs, run)
	var stats core.MetricParallelStats
	opts := core.MetricParallelOptions{Workers: workers, Hubs: hubCount(nMetric), Stats: &stats, Ctx: ctx}
	run, _, err = timeHubRun(opts.Hubs, reps, base, func() (*core.Result, error) {
		return core.GreedyMetricFastParallelOpts(m, c.Stretch, opts)
	})
	if err != nil {
		return nil, nil, err
	}
	fillHubRun(&run, &stats.ParallelStats)
	c.Runs = append(c.Runs, run)
	c.SpannerEdges = base.Size()
	finishHubCase(&c, tab)
	report.Cases = append(report.Cases, c)
	return tab, report, nil
}

// timeHubRun times reps builds of one configuration, compares each output
// with base (when non-nil), and measures the allocation of one more,
// untimed build. It returns the run and the last build's result.
func timeHubRun(hubs, reps int, base *core.Result, build func() (*core.Result, error)) (HubBenchRun, *core.Result, error) {
	run := HubBenchRun{Hubs: hubs, Identical: true}
	var last *core.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := build()
		if err != nil {
			return run, nil, err
		}
		run.MS = append(run.MS, time.Since(start).Seconds()*1000)
		last = res
		if base != nil {
			run.Identical = run.Identical && sameOutput(base, res) && base.EdgesExamined == res.EdgesExamined
		}
	}
	run.MedianMS, run.SpreadPct = median(run.MS), spreadPct(run.MS)
	peak, total, err := measureAlloc(func() error {
		_, err := build()
		return err
	})
	run.PeakAllocBytes, run.TotalAllocBytes = peak, total
	return run, last, err
}

// fillHubRun derives the search and hub fields of one scan run from its
// counters.
func fillHubRun(run *HubBenchRun, stats *core.ParallelStats) {
	run.ExactSearches = stats.CertifiedSkips + stats.SerialSkips + stats.Kept
	run.HubQueries, run.HubSkips, run.HubRelaxed = stats.HubQueries, stats.HubSkips, stats.HubRelaxed
	if stats.HubQueries > 0 {
		run.HubHitRate = float64(stats.HubSkips) / float64(stats.HubQueries)
	}
	if certified := stats.CertifiedSkips + stats.SerialSkips + stats.HubSkips; certified > 0 {
		run.HubCertifiedFraction = float64(stats.HubSkips) / float64(certified)
	}
}

// finishHubCase computes the case's cross-run ratios and emits its table
// rows; Runs[0] is the baseline.
func finishHubCase(c *HubBenchCase, tab *Table) {
	base := &c.Runs[0]
	base.Speedup = 1
	for i := range c.Runs {
		run := &c.Runs[i]
		if run.MedianMS > 0 {
			run.Speedup = base.MedianMS / run.MedianMS
		}
		if i > 0 && run.ExactSearches > 0 {
			c.SearchReduction = float64(base.ExactSearches) / float64(run.ExactSearches)
		}
		tab.AddRow(c.Kind, itoa(c.N), itoa(run.Hubs),
			f2(run.MedianMS), f2(run.SpreadPct), f2(run.Speedup),
			itoa(run.ExactSearches), f2(100*run.HubHitRate), f2(100*run.HubCertifiedFraction),
			mb(run.PeakAllocBytes), yesNo(run.Identical))
	}
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *HubBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
