package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/verify"
)

// buildSpec is one greedy build: a Euclidean point set (metric-build) or
// a weighted graph (graph-build), with its stretch and hub count.
type buildSpec struct {
	t       float64
	hubs    int
	workers int
	m       metric.Metric // metric mode; nil in graph mode
	g       *graph.Graph  // graph mode; nil in metric mode
}

// newBuildSpec generates the workload's input from the seed.
func newBuildSpec(cfg *config) (*buildSpec, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.workload == "metric-build" {
		m, err := metric.NewEuclidean(gen.UniformPoints(rng, cfg.sizes.metricN, 2))
		if err != nil {
			return nil, err
		}
		return &buildSpec{t: 1.5, hubs: core.DefaultHubs(cfg.sizes.metricN), workers: cfg.workers, m: m}, nil
	}
	g := gen.ErdosRenyi(rng, cfg.sizes.graphN, cfg.sizes.graphP, 0.5, 10)
	return &buildSpec{t: 3, hubs: core.DefaultHubs(cfg.sizes.graphN), workers: cfg.workers, g: g}, nil
}

func (b *buildSpec) n() int {
	if b.m != nil {
		return b.m.N()
	}
	return b.g.N()
}

// engineCounters unifies the two engines' Stats.
type engineCounters struct {
	batches, kept                          int
	hubQueries, hubSkips, hubRelaxed       int
	serialSkips                            int
	cachedSkips, refreshes, refreshTouched int
	rowsAllocated                          int
}

// engine runs the parallel engine once; src nil selects its default
// supply.
func (b *buildSpec) engine(src core.CandidateSource) (*core.Result, engineCounters, error) {
	if b.m != nil {
		var st core.MetricParallelStats
		res, err := core.GreedyMetricFastParallelOpts(b.m, b.t, core.MetricParallelOptions{
			Workers: b.workers, Hubs: b.hubs, Source: src, Stats: &st,
		})
		return res, engineCounters{
			batches: st.Batches, kept: st.Kept,
			hubQueries: st.HubQueries, hubSkips: st.HubSkips, hubRelaxed: st.HubRelaxed,
			serialSkips: st.SerialSkips, cachedSkips: st.CachedSkips,
			refreshes: st.ParallelRefreshes + st.SerialRefreshes, refreshTouched: st.RefreshTouched,
			rowsAllocated: st.RowsAllocated,
		}, err
	}
	var st core.ParallelStats
	res, err := core.GreedyGraphParallelOpts(b.g, b.t, core.ParallelOptions{
		Workers: b.workers, Hubs: b.hubs, Source: src, Stats: &st,
	})
	return res, engineCounters{
		batches: st.Batches, kept: st.Kept,
		hubQueries: st.HubQueries, hubSkips: st.HubSkips, hubRelaxed: st.HubRelaxed,
		serialSkips: st.SerialSkips,
	}, err
}

// source returns the engine's default streamed candidate supply.
func (b *buildSpec) source() core.CandidateSource {
	if b.m != nil {
		return core.NewMetricSource(b.m, 0)
	}
	return core.NewGraphEdgeSource(b.g, 0)
}

func (b *buildSpec) selectHubs() []int {
	if b.m != nil {
		return core.SelectMetricHubs(b.m, b.hubs)
	}
	return core.SelectGraphHubs(b.g, b.hubs)
}

// auditSources bounds the graph audit: a full verify.Spanner runs one
// Dijkstra per vertex, about 30 s of CPU at graph-build's size, so larger
// graphs are audited on the input edges of a seeded sample of this many
// sources.
const auditSources = 1024

// audit checks the stretch of h over every point pair (metric) or over
// the input edges whose lower endpoint is one of up to auditSources
// sources (graph), the sources split across the workers.
func (b *buildSpec) audit(h *graph.Graph, seed int64) error {
	if b.m != nil {
		_, err := verify.MetricSpannerParallel(h, b.m, b.t, 1e-9, b.workers)
		return err
	}
	n := b.g.N()
	sampled := rand.New(rand.NewSource(seed)).Perm(n)[:min(n, auditSources)]
	part := make([][]graph.Edge, b.workers)
	for i, u := range sampled {
		// verify.Spanner runs one Dijkstra per lower endpoint, so only the
		// edges whose lower endpoint is u are u's to audit.
		b.g.Neighbors(u, func(v int, w float64) bool {
			if v > u {
				part[i%b.workers] = append(part[i%b.workers], graph.Edge{U: u, V: v, W: w})
			}
			return true
		})
	}
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for i := range part {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = verify.Spanner(h, b.g.Subgraph(part[i]), b.t, 1e-9)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timedBuild runs the engine with its default supply, the heap collected
// beforehand, and returns the result, its wall time in seconds and its
// allocation in MB.
func (b *buildSpec) timedBuild() (*core.Result, float64, float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, _, err := b.engine(nil)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return res, wall, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
}

// runBuild is the metric-build and graph-build workload.
func runBuild(cfg *config, rep *report) error {
	var spec *buildSpec
	var setup []float64
	// Generating points takes well under a millisecond, so cheap set-ups
	// repeat until they have run for a measurable while.
	for i := 0; i < cfg.sizes.setupReps || (sum(setup) < 0.2 && i < 200); i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := newBuildSpec(cfg)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		spec = s
	}
	rep.setSamples("setup_s", "s", setup)
	if cfg.trace {
		return traceBuild(cfg, spec, rep)
	}

	// Each build is followed by a short read burst on its result, so the
	// read samples spread over the whole run like the builds do.
	var ready, alloc []float64
	var first *core.Result
	var answers []readAnswer
	reads := &readSummary{}
	for loop := newTimedLoop(cfg.seconds); loop.next(); {
		res, wall, mb, err := spec.timedBuild()
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		rep.ops(1, 0)
		ready = append(ready, wall)
		alloc = append(alloc, mb)
		if first != nil {
			sameDigest(rep, fmt.Sprintf("build %d against the first build", len(ready)), res, first)
		}
		h := res.Graph()
		runtime.GC()
		load := runReads(cfg.clients(), spec.n(), cfg.seed+int64(len(ready)), cfg.sizes.buildReads, nil, directReads(h, cfg.clients(), nil), nil)
		if first == nil {
			first, answers = res, load.answers
		}
		reads.add(load)
		rep.ops(load.attempted, load.failed)
	}
	rep.setSamples("ready_s", "s", ready)
	rep.setSamples("alloc_mb", "MB", alloc)
	reportReads(rep, reads)
	rep.note("digest %016x  edges %d  examined %d", core.ResultDigest(first), len(first.Edges), first.EdgesExamined)

	h := first.Graph()
	rep.check(checkAnswers(h, answers) == 0, "a read answer disagrees with Dijkstra on the built spanner")
	auditErr := spec.audit(h, cfg.seed)
	rep.check(auditErr == nil, "stretch audit: %v", auditErr)
	return nil
}

// sameDigest checks that got is bit-identical to want.
func sameDigest(rep *report, what string, got, want *core.Result) {
	g, w := core.ResultDigest(got), core.ResultDigest(want)
	rep.check(g == w, "%s: digest %016x, want %016x", what, g, w)
}

// reportReads records the end-to-end read metrics of a run's read
// phases: the median latency over all reads, and the median over
// readWindow-long windows of each window's 90th percentile. The windows'
// read rate and 99th percentile are printed but are not end-to-end
// metrics. The collector and the host's preemptions delay about 1% of
// reads, which moves the 99th percentile by a quarter or more between
// runs of the same code, and the rate with it: with one closed-loop
// reader the rate is the inverse of the mean latency, which those reads
// pull. The 90th percentile moves about as little as the median.
func reportReads(rep *report, reads *readSummary) {
	rep.setSamples("read_qps", "qps", reads.qps)
	rep.setSamples("read_p50_ms", "ms", reads.latMS)
	rep.setSamples("read_p90_ms", "ms", reads.p90)
	rep.setSamples("read_p99_ms", "ms", reads.p99)
}

// replayBatch is the largest batch the serial replay asks the supply for.
const replayBatch = 8192

// replayBuild re-runs the greedy scan serially from outside the engine,
// one tier at a time per batch: the supply's NextBatch, a hub
// certification pre-pass against the spanner at the batch start (where
// the lazy hub maintenance runs), then in scan order an exact bounded
// search for every candidate the hubs did not certify, and the spanner
// and hub updates for every accepted edge. Every decision is exact, so
// the result must be bit-identical to the engine's.
func replayBuild(spec *buildSpec, hubs []int, tr *tracer, parent int) *core.Result {
	n := spec.n()
	h := graph.New(n)
	oracle := core.NewHubOracle(hubs, h, 0)
	search := graph.NewSearcher(n)
	src := &timedSource{src: spec.source(), tr: tr, name: "core.replay.supply", parent: parent}
	res := &core.Result{N: n, Stretch: spec.t}
	var hubbed []bool
	for {
		edges := src.NextBatch(replayBatch)
		if len(edges) == 0 {
			return res
		}
		if len(edges) > len(hubbed) {
			hubbed = make([]bool, len(edges))
		}
		t0 := time.Now()
		for i, e := range edges {
			_, hubbed[i] = oracle.Certify(e.U, e.V, spec.t*e.W)
		}
		tr.record("core.hub.certify", parent, t0, time.Now(), len(edges))

		decide := tr.begin("core.replay.decide", parent)
		calls := 0
		for i, e := range edges {
			res.EdgesExamined++
			if hubbed[i] {
				continue
			}
			calls++
			if _, within := search.BidirDistanceWithin(h, e.U, e.V, spec.t*e.W); within {
				continue
			}
			ta := time.Now()
			h.MustAddEdge(e.U, e.V, e.W)
			oracle.OnAccept(e)
			res.Edges = append(res.Edges, e)
			res.Weight += e.W
			tr.record("core.replay.accept", decide, ta, time.Now(), 1)
		}
		tr.end(decide, calls)
	}
}

// traceBuild is the traced run of a build workload: a warm-up and an
// untraced build, the hub selection timed from outside, a build with a
// timed supply, and the serial per-tier replay.
func traceBuild(cfg *config, spec *buildSpec, rep *report) error {
	tr := newTracer(cfg.runID())
	defer cfg.writeTrace(rep, tr)

	// The first build of a process is slower (the heap is still growing),
	// so one untimed warm-up precedes the untraced and traced builds whose
	// difference is the tracing overhead.
	if _, _, _, err := spec.timedBuild(); err != nil {
		return fmt.Errorf("warm-up build: %w", err)
	}
	resU, untraced, _, err := spec.timedBuild()
	if err != nil {
		return fmt.Errorf("untraced build: %w", err)
	}
	rep.ops(2, 0)

	t0 := time.Now()
	hubs := spec.selectHubs()
	tr.record("core.hub.select", 0, t0, time.Now(), len(hubs))

	runtime.GC()
	id := tr.begin("core.build", 0)
	res, ctr, err := spec.engine(&timedSource{src: spec.source(), tr: tr, name: "core.supply", parent: id})
	traced := tr.end(id, 0)
	if err != nil {
		return fmt.Errorf("traced build: %w", err)
	}
	rep.ops(1, 0)
	sameDigest(rep, "traced build against the untraced build", res, resU)

	rid := tr.begin("core.replay", 0)
	replayed := replayBuild(spec, hubs, tr, rid)
	replayS := tr.end(rid, 0)
	sameDigest(rep, "serial replay against the engine", replayed, res)
	rep.note("digest %016x  replay digest %016x  edges %d", core.ResultDigest(res), core.ResultDigest(replayed), len(res.Edges))

	supplyS, candidates, batches := tr.total("core.supply")
	selectS, _, _ := tr.total("core.hub.select")
	engineS := traced - supplyS
	rep.set("build_s", "s", untraced)
	rep.set("trace.overhead_s", "s", traced-untraced)
	rep.set("core.supply.s", "s", supplyS)
	rep.set("core.supply.candidates", "count", float64(candidates))
	rep.set("core.supply.batches", "count", float64(batches))
	rep.set("core.engine.s", "s", engineS)
	rep.set("core.hub.select_s", "s", selectS)
	rep.set("core.hub.queries", "count", float64(ctr.hubQueries))
	rep.set("core.hub.skips", "count", float64(ctr.hubSkips))
	rep.set("core.hub.skip_ratio", "ratio", float64(ctr.hubSkips)/float64(max(ctr.hubQueries, 1)))
	rep.set("core.hub.relaxed", "count", float64(ctr.hubRelaxed))
	rep.set("core.recheck.serial_skips", "count", float64(ctr.serialSkips))
	rep.set("core.engine.batches", "count", float64(ctr.batches))
	rep.set("core.engine.kept", "count", float64(ctr.kept))
	rep.set("core.rows.cached_skips", "count", float64(ctr.cachedSkips))
	rep.set("core.rows.refreshes", "count", float64(ctr.refreshes))
	rep.set("core.rows.refresh_touched", "count", float64(ctr.refreshTouched))
	rep.set("core.rows.allocated", "count", float64(ctr.rowsAllocated))

	rSupply, _, _ := tr.total("core.replay.supply")
	certify, _, _ := tr.total("core.hub.certify")
	decide, calls, _ := tr.total("core.replay.decide")
	accept, _, _ := tr.total("core.replay.accept")
	searchS := tr.selfTime("core.replay.decide")
	rep.set("core.replay.s", "s", replayS)
	rep.set("core.replay.supply_s", "s", rSupply)
	rep.set("core.hub.certify_s", "s", certify)
	rep.set("core.replay.accept_s", "s", accept)
	rep.set("graph.search.s", "s", searchS)
	rep.set("graph.search.calls", "count", float64(calls))
	rep.set("graph.search.us_per_call", "us", 1e6*searchS/float64(max(calls, 1)))

	rep.gate("coverage.build", (supplyS+engineS)/traced)
	rep.gate("coverage.replay", (rSupply+certify+decide)/replayS)

	auditErr := spec.audit(res.Graph(), cfg.seed)
	rep.check(auditErr == nil, "stretch audit: %v", auditErr)
	return nil
}
