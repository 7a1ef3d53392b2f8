package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around calls into the program, never inside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // work items the span covers
}

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// record appends a finished span and returns its id for use as a parent.
func (tr *tracer) record(name string, parent int, start, end time.Time, count int) int {
	if tr == nil {
		return 0
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Run: tr.run, Name: name,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0)), Count: count,
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (tr *tracer) begin(name string, parent int) int {
	now := time.Now()
	return tr.record(name, parent, now, now, 0)
}

// end closes a span opened by begin and returns its duration in seconds.
func (tr *tracer) end(id, count int) float64 {
	if tr == nil {
		return 0
	}
	s := &tr.spans[id-1]
	s.End = int64(time.Since(tr.t0))
	s.Count = count
	return float64(s.End-s.Start) / 1e9
}

// total sums the durations of every span with the given name, in seconds,
// the work items they cover, and how many of them cover any work.
func (tr *tracer) total(name string) (seconds float64, count, busy int) {
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name {
			ns += s.End - s.Start
			count += s.Count
			if s.Count > 0 {
				busy++
			}
		}
	}
	return float64(ns) / 1e9, count, busy
}

// selfTime sums, over every span with the given name, its duration minus
// the part its direct children cover, in seconds.
func (tr *tracer) selfTime(name string) float64 {
	child := map[int]int64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name {
			ns += s.End - s.Start - child[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as one JSON object per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timedSource wraps a CandidateSource and records one span per NextBatch
// call: the clock runs once per batch, not once per candidate.
type timedSource struct {
	src    core.CandidateSource
	tr     *tracer
	name   string
	parent int
}

func (s *timedSource) NextBatch(maxW int) []graph.Edge {
	t0 := time.Now()
	out := s.src.NextBatch(maxW)
	s.tr.record(s.name, s.parent, t0, time.Now(), len(out))
	return out
}
