package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported metric: its value and unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and the human-readable lines printed
// before the final JSON object.
type report struct {
	metrics   map[string]metricValue
	lines     []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}}
}

// set records a single-valued metric (a count, a ratio, or a timing
// derived from other timings).
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
}

// setSamples records the median of xs as the metric and prints the
// median, the highest percentile with at least ten samples beyond it,
// and the sample count.
func (r *report) setSamples(name, unit string, xs []float64) {
	med := quantile(xs, 0.5)
	r.metrics[name] = metricValue{Value: med, Unit: unit}
	tail := "no percentile has 10 samples beyond it"
	if p, ok := tailQuantile(len(xs)); ok {
		tail = fmt.Sprintf("p%s %.6g", strings.TrimSuffix(fmt.Sprintf("%.1f", 100*p), ".0"), quantile(xs, p))
	}
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %s  (median; %s; n=%d)", name, med, unit, tail, len(xs)))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// gate records a coverage ratio and fails the run below coverageFloor.
func (r *report) gate(name string, ratio float64) {
	r.set(name, "ratio", ratio)
	r.check(ratio >= coverageFloor, "%s: layer times cover %.1f%% of the end-to-end time, below %.0f%%", name, 100*ratio, 100*coverageFloor)
}

// check counts one output check; a false ok counts as a failure with the
// given explanation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ops counts attempted operations (requests, builds) and their failures.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile picks the highest of the usual reporting percentiles that
// still has at least ten samples above it among n.
func tailQuantile(n int) (float64, bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.75} {
		if float64(n)*(1-p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timedLoop paces a run's timed loop: it always runs a first iteration,
// then starts another only while that one, judged by the last, would end
// less than half an iteration past the deadline. A run so lasts about
// --seconds however long one iteration takes.
type timedLoop struct {
	deadline time.Time
	began    time.Time
	n        int
}

func newTimedLoop(d time.Duration) *timedLoop {
	return &timedLoop{deadline: time.Now().Add(d)}
}

// next reports whether another iteration starts, and counts it if so.
func (l *timedLoop) next() bool {
	now := time.Now()
	if l.n > 0 && now.Add(now.Sub(l.began)/2).After(l.deadline) {
		return false
	}
	l.n++
	l.began = now
	return true
}
