// Command perfbench is the repository's benchmark: three seeded
// workloads (metric-build, graph-build, serve-restart) timed end to end
// and, in a separate traced run, layer by layer, from outside the
// program. It is normally started through run.py, which builds it from
// the tree it stamps; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Set at link time by run.py.
var (
	treeHash = "unset"
	gitHead  = "unknown"
	gitDirty = "unknown"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ready_s", "s"},
	{"alloc_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run reports; those a workload does
// not exercise read 0 (see README.md for which workload shows which).
var perLayer = []metricDef{
	{"build_s", "s"},
	{"trace.overhead_s", "s"},
	{"core.supply.s", "s"},
	{"core.supply.candidates", "count"},
	{"core.supply.batches", "count"},
	{"core.engine.s", "s"},
	{"core.hub.select_s", "s"},
	{"core.hub.queries", "count"},
	{"core.hub.skips", "count"},
	{"core.hub.skip_ratio", "ratio"},
	{"core.hub.relaxed", "count"},
	{"core.recheck.serial_skips", "count"},
	{"core.engine.batches", "count"},
	{"core.engine.kept", "count"},
	{"core.rows.cached_skips", "count"},
	{"core.rows.refreshes", "count"},
	{"core.rows.refresh_touched", "count"},
	{"core.rows.allocated", "count"},
	{"core.replay.s", "s"},
	{"core.replay.supply_s", "s"},
	{"core.hub.certify_s", "s"},
	{"core.replay.accept_s", "s"},
	{"graph.search.s", "s"},
	{"graph.search.calls", "count"},
	{"graph.search.us_per_call", "us"},
	{"coverage.build", "ratio"},
	{"coverage.replay", "ratio"},
	{"recover_s", "s"},
	{"persist.snapshot.read_s", "s"},
	{"persist.snapshot.decode_s", "s"},
	{"persist.wal.read_s", "s"},
	{"core.import_s", "s"},
	{"persist.wal.replay_s", "s"},
	{"persist.wal.replayed_ops", "count"},
	{"coverage.recover", "ratio"},
	{"graph.query.us", "us"},
	{"server.http.us", "us"},
	{"coverage.read", "ratio"},
	{"read_p50_write_ms", "ms"},
	{"mutate_ms", "ms"},
	{"persist.wal.append_ms", "ms"},
	{"core.flush_ms", "ms"},
	{"server.publish_ms", "ms"},
	{"drain_s", "s"},
	{"persist.checkpoint_s", "s"},
	{"snapshot_mb", "MB"},
	{"persist.snapshot_bytes", "bytes"},
	{"server.served", "count"},
	{"server.shed", "count"},
	{"server.cancelled", "count"},
	{"error_rate", "ratio"},
}

var workloads = []string{"metric-build", "graph-build", "serve-restart"}

// coverageFloor is the share of an end-to-end time the layer times must
// account for in a traced run.
const coverageFloor = 0.9

// sizes are the workload dimensions; the self-check shrinks them.
type sizes struct {
	metricN int
	graphN  int
	graphP  float64
	serveN  int
	// buildReads is the read burst after each build, serveReads the
	// serve-restart read phase.
	buildReads time.Duration
	serveReads time.Duration
	setupReps  int
}

var fullSizes = sizes{metricN: 3000, graphN: 8000, graphP: 0.025, serveN: 1500, buildReads: time.Second, serveReads: 3 * time.Second, setupReps: 3}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	sizes    sizes
	outDir   string // traces and scratch state, inside the checkout
	started  time.Time
}

// clients is the closed-loop reader count of a read phase: one. On
// spannerd each reader also keeps a handler busy, and the runtime's
// collector needs a CPU too, so more readers on this few CPUs would time
// the scheduler rather than the reads. The write phase adds the writer.
func (c *config) clients() int { return 1 }

func (c *config) runID() string {
	return fmt.Sprintf("%s-seed%d-%s", c.workload, c.seed, c.started.Format("20060102T150405"))
}

// writeTrace writes the run's spans once it ends.
func (c *config) writeTrace(rep *report, tr *tracer) {
	path := filepath.Join(c.outDir, "traces", c.runID()+".jsonl")
	if err := tr.write(path); err != nil {
		rep.note("trace not written: %v", err)
		return
	}
	rep.note("spans: %d written to %s", len(tr.spans), path)
}

// run executes one workload and returns its report.
func run(cfg *config) (*report, error) {
	rep := newReport()
	var err error
	switch cfg.workload {
	case "metric-build", "graph-build":
		err = runBuild(cfg, rep)
	case "serve-restart":
		err = runServe(cfg, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	rep.set("error_rate", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	return rep, nil
}

// result assembles the final JSON object: every metric of the mode's list,
// all of which must have been measured (per-layer metrics a workload does
// not exercise read 0).
func (r *report) result(trace bool) (map[string]any, error) {
	defs, fill := endToEnd, false
	if trace {
		defs, fill = perLayer, true
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		switch {
		case ok && v.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, v.Unit, d.unit)
		case !ok && !fill:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case !ok:
			v = metricValue{Value: 0, Unit: d.unit}
		}
		metrics[d.name] = v
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var (
		cfg    = config{sizes: fullSizes, workers: runtime.NumCPU(), started: time.Now()}
		secs   float64
		trace  int
		expect string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	flag.Float64Var(&secs, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces and scratch state")
	flag.StringVar(&expect, "expect-tree", "", "refuse to run unless the binary was built from this source tree hash")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1

	if expect != "" && expect != treeHash {
		fmt.Fprintf(os.Stderr, "perfbench: stale binary: built from tree %s, source tree is %s\n", treeHash, expect)
		os.Exit(2)
	}
	stamp, _ := json.Marshal(map[string]any{
		"git_head": gitHead, "git_dirty": gitDirty, "tree": treeHash,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "workers": cfg.workers, "seed": cfg.seed,
		"workload": cfg.workload, "trace": trace, "seconds": secs,
	})
	fmt.Println("stamp", string(stamp))

	rep, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	out, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
