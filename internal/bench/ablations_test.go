package bench

import (
	"context"
	"os"
	"testing"
)

func TestA1DeputiesSmall(t *testing.T) {
	tab, err := A1Deputies(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: ring gadget on/off, uniform on/off.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// On the gadget, deputies must not increase the max degree.
	on := atoiMust(t, tab.Rows[0][4])
	off := atoiMust(t, tab.Rows[1][4])
	if on > off {
		t.Fatalf("deputies increased gadget degree: %d > %d", on, off)
	}
}

func TestA2BucketWidthSmall(t *testing.T) {
	tab, err := A2BucketWidth(Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Wider buckets cannot need more rebuilds.
	prev := 1 << 30
	for _, row := range tab.Rows {
		r := atoiMust(t, row[3])
		if r > prev {
			t.Fatalf("rebuilds increased with wider mu: %v", tab.Rows)
		}
		prev = r
	}
}

func TestA3CertificationSmall(t *testing.T) {
	tab, err := A3Certification(Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if atoiMust(t, row[2])+atoiMust(t, row[3]) == 0 {
			t.Fatalf("no skips at all in row %v", row)
		}
	}
}

func TestA4ParallelBatchWidthSmall(t *testing.T) {
	tab, err := A4ParallelBatchWidth(Small, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: fixed widths 32/128/512/2048 plus adaptive.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[7])
		if kept == 0 {
			t.Fatalf("no edges kept in row %v", row)
		}
		// Every examined edge is either certified, serially skipped, or kept.
		if atoiMust(t, row[5])+atoiMust(t, row[6])+kept != atoiMust(t, row[1]) {
			t.Fatalf("skip accounting broken in row %v", row)
		}
	}
	// All widths must agree on the spanner size (identical decisions).
	first := atoiMust(t, tab.Rows[0][7])
	for _, row := range tab.Rows[1:] {
		if atoiMust(t, row[7]) != first {
			t.Fatalf("batch width changed the spanner: %v", tab.Rows)
		}
	}
}

func TestA5MetricBatchWidthSmall(t *testing.T) {
	tab, err := A5MetricBatchWidth(Small, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (fixed widths 32/128/512/2048 plus adaptive) x two metric kinds.
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[8])
		if kept == 0 {
			t.Fatalf("no edges kept in row %v", row)
		}
		// Every examined pair is hub-skipped, snapshot-certified,
		// serially skipped, or kept.
		n := atoiMust(t, row[1])
		total := atoiMust(t, row[5]) + atoiMust(t, row[6]) + atoiMust(t, row[7]) + kept
		if total != n*(n-1)/2 {
			t.Fatalf("pair accounting broken in row %v: got %d, want %d", row, total, n*(n-1)/2)
		}
	}
	// Within each metric kind, all widths must agree on the spanner size
	// (identical decisions).
	sizeByKind := map[string]int{}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[8])
		if want, ok := sizeByKind[row[0]]; ok && kept != want {
			t.Fatalf("batch width changed the %s spanner: %v", row[0], tab.Rows)
		}
		sizeByKind[row[0]] = kept
	}
}

func TestAblationsAll(t *testing.T) {
	tabs, err := Ablations(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("tables = %d, want 5", len(tabs))
	}
}

func TestGreedyBenchSmall(t *testing.T) {
	tab, report, err := GreedyBench(context.Background(), Small, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cases) != 1 || report.Cases[0].N != 200 {
		t.Fatalf("unexpected cases: %+v", report.Cases)
	}
	c := report.Cases[0]
	if !c.IdenticalOutput {
		t.Fatal("parallel engine output diverged from sequential")
	}
	if len(c.SequentialMS) != 3 {
		t.Fatalf("want 3 sequential samples, got %d", len(c.SequentialMS))
	}
	for _, run := range c.Parallel {
		if len(run.MS) != 3 || run.MedianMS <= 0 || run.Speedup <= 0 {
			t.Fatalf("implausible parallel run: %+v", run)
		}
	}
	if len(tab.Rows) != 1+len(c.Parallel) {
		t.Fatalf("table rows = %d, want %d", len(tab.Rows), 1+len(c.Parallel))
	}
	path := t.TempDir() + "/BENCH_greedy.json"
	if err := report.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyMetricBenchSmall(t *testing.T) {
	tab, report, err := GreedyMetricBench(context.Background(), Small, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cases) != 2 {
		t.Fatalf("unexpected cases: %+v", report.Cases)
	}
	rows := 0
	for _, c := range report.Cases {
		if !c.IdenticalOutput {
			t.Fatalf("parallel metric engine output diverged from serial (%s, n=%d)", c.Kind, c.N)
		}
		if len(c.SequentialMS) != 3 {
			t.Fatalf("want 3 sequential samples, got %d", len(c.SequentialMS))
		}
		if c.Pairs != c.N*(c.N-1)/2 {
			t.Fatalf("pair count %d inconsistent with n=%d", c.Pairs, c.N)
		}
		for _, run := range c.Parallel {
			if len(run.MS) != 3 || run.MedianMS <= 0 || run.Speedup <= 0 {
				t.Fatalf("implausible parallel run: %+v", run)
			}
		}
		rows += 1 + len(c.Parallel)
	}
	if len(tab.Rows) != rows {
		t.Fatalf("table rows = %d, want %d", len(tab.Rows), rows)
	}
	path := t.TempDir() + "/BENCH_greedymetric.json"
	if err := report.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyMetricBenchSingleWorkerSet(t *testing.T) {
	_, report, err := GreedyMetricBench(context.Background(), Small, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range report.Cases {
		if len(c.Parallel) != 1 || c.Parallel[0].Workers != 2 {
			t.Fatalf("-workers 2 should restrict the sweep, got %+v", c.Parallel)
		}
	}
}
