package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallSizes shrink every workload to a few hundred points or vertices so
// the self-check runs in seconds.
var smallSizes = sizes{metricN: 200, graphN: 300, graphP: 0.1, serveN: 200, buildReads: 200 * time.Millisecond, serveReads: time.Second, setupReps: 1}

func smallConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, trace: trace, workers: 2, sizes: smallSizes, outDir: t.TempDir(), started: time.Now()}
}

// servesLayers reports whether a per-layer metric belongs to the
// serve-restart half of the list (the rest belong to the builds).
func servesLayers() map[string]bool {
	serve, seen := map[string]bool{}, false
	for _, d := range perLayer {
		seen = seen || d.name == "recover_s"
		serve[d.name] = seen
	}
	return serve
}

// TestEveryMetricEmitted runs every workload untraced and traced on small
// inputs: each declared metric must come out with its declared unit, the
// workload's own layers must really be measured, and no output check or
// coverage gate may fail.
func TestEveryMetricEmitted(t *testing.T) {
	serveLayer := servesLayers()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, w, trace)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			out, err := rep.result(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			metrics := out["metrics"].(map[string]metricValue)
			if len(metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, v, d.unit)
				}
				own := !trace || d.name == "error_rate" || serveLayer[d.name] == (w == "serve-restart")
				if _, measured := rep.metrics[d.name]; own && !measured {
					t.Errorf("%s trace=%v: metric %s not measured", w, trace, d.name)
				}
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w, trace, rep.attempted, rep.failed, rep.failures)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the emitted metric
// lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.json) != len(list.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(list.json), len(list.defs))
		}
		for i, m := range list.json {
			if m.Name != list.defs[i].name || m.Unit != list.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, list.defs[i].name, list.defs[i].unit)
			}
		}
	}
}

// TestBuildDigestCheckFires feeds the build digest check a deliberately
// wrong result: the replay of a small build, minus its last edge.
func TestBuildDigestCheckFires(t *testing.T) {
	for _, w := range []string{"metric-build", "graph-build"} {
		cfg := smallConfig(t, w, true)
		spec, err := newBuildSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := spec.engine(nil)
		if err != nil {
			t.Fatal(err)
		}
		replayed := replayBuild(spec, spec.selectHubs(), nil, 0)
		rep := newReport()
		sameDigest(rep, "replay", replayed, res)
		if rep.failed != 0 {
			t.Fatalf("%s: the replay of a correct build fails the digest check: %v", w, rep.failures)
		}
		wrong := *replayed
		wrong.Edges = wrong.Edges[:len(wrong.Edges)-1]
		sameDigest(rep, "replay", &wrong, res)
		if rep.failed != 1 {
			t.Errorf("%s: a result missing an edge passed the digest check", w)
		}
	}
}

// TestServeDigestCheckFires runs one small serve-restart lifecycle and
// checks it against a deliberately wrong expected digest.
func TestServeDigestCheckFires(t *testing.T) {
	cfg := smallConfig(t, "serve-restart", false)
	st, err := setupServe(cfg, filepath.Join(cfg.outDir, "crashed"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratchDigest(cfg, st.pointsAfter(len(st.writes)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := lifecycle(cfg, st, filepath.Join(cfg.outDir, "life"), false, always)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkLife(rep, l, want)
	if rep.failed != 0 {
		t.Fatalf("a correct lifecycle fails its checks: %v", rep.failures)
	}
	checkLife(rep, l, "0123456789abcdef")
	if rep.failed != 1 {
		t.Errorf("a wrong expected digest gave %d failures, want 1: %v", rep.failed, rep.failures)
	}
}
