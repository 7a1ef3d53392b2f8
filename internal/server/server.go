// Package server implements spannerd's serving core: a crash-tolerant,
// overload-safe HTTP/JSON daemon answering distance, path, and stats
// queries against an immutable RCU-style snapshot of a durable greedy
// spanner.
//
// Reads never touch the engine. Every query runs against the snapshot
// published by the most recent mutation — an immutable (*core.Result,
// *graph.Graph) pair behind an atomic pointer — so readers proceed
// wait-free while mutations flow through the persist.Durable WAL path
// and publish a fresh snapshot with a single pointer swap. Snapshot
// publication is the only cross-goroutine handoff in the package.
//
// The server is hardened end to end: per-request deadlines propagate
// into the engine's cooperative-cancellation context, admission control
// sheds load with typed 503 responses once a bounded queue fills,
// handler panics are contained per request, transient mutation failures
// are retried with exponential backoff until the engine state converges
// with the write-ahead log, and Drain stops admission, finishes or
// cancels in-flight work, checkpoints, and releases the directory lock
// so acknowledged mutations form an exact durable prefix.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
)

// Config configures a Server. The zero value of every field except
// Durable is usable; see the field comments for defaults.
type Config struct {
	// Durable is the spanner to serve. The Server owns it from New on:
	// mutating it elsewhere bypasses snapshot publication and the WAL
	// ordering guarantee. Required.
	Durable *persist.Durable
	// MaxInflight bounds concurrently admitted read queries (default 64).
	MaxInflight int
	// QueueDepth bounds reads waiting for an admission slot before the
	// server sheds with a typed 503 (default 2*MaxInflight).
	QueueDepth int
	// RequestTimeout is the per-read deadline propagated into the
	// engine's stop predicate (default 2s).
	RequestTimeout time.Duration
	// MutateTimeout is the per-mutation deadline propagated into the
	// engine context (default 30s).
	MutateTimeout time.Duration
	// DrainGrace is how long Drain waits for in-flight requests before
	// cancelling them (default 5s).
	DrainGrace time.Duration
	// RetryBase seeds the exponential backoff between convergence
	// retries after a transient mutation failure (default 5ms).
	RetryBase time.Duration
	// RetryMax bounds convergence attempts before the mutation path is
	// wedged (default 8).
	RetryMax int
	// Hooks carries test-only instrumentation.
	Hooks Hooks
}

// Hooks exposes the server's internal windows to the chaos and bench
// suites.
type Hooks struct {
	// BeforeSwap runs under the writer slot immediately before a new
	// snapshot version is published.
	BeforeSwap func(version uint64)
	// OnConverge observes each convergence retry with its error.
	OnConverge func(attempt int, err error)
	// OnAdmit runs on the read path right after a request wins its
	// admission slot; the load benchmark uses it to simulate a slower
	// backend so the shedding contract is exercised deterministically.
	OnAdmit func()
}

// snapshot is one immutable published state: result, materialized
// spanner graph, identity metadata copied under the writer slot (so
// stats never race the WAL counters), and a pool of query searchers
// sized for the snapshot's vertex count.
type snapshot struct {
	res     *core.Result
	g       *graph.Graph
	digest  uint64
	version uint64
	gen     uint64
	opSeq   uint64

	searchers sync.Pool
}

func (s *snapshot) searcher() *graph.Searcher {
	return s.searchers.Get().(*graph.Searcher)
}

// Counters are the server's monotonically increasing event counts,
// readable at any time via Stats.
type Counters struct {
	Served    atomic.Uint64 // responses written with a 2xx status
	Shed      atomic.Uint64 // reads rejected queue-full
	Rejected  atomic.Uint64 // requests rejected while draining
	Cancelled atomic.Uint64 // requests ended by cancellation or deadline
	Invalid   atomic.Uint64 // malformed requests
	Panics    atomic.Uint64 // handler panics contained
	Mutations atomic.Uint64 // mutations acknowledged
	Converges atomic.Uint64 // convergence retries that ran
}

// Server serves a durable spanner over HTTP. Create with New, expose
// via Handler, stop with Drain.
type Server struct {
	cfg  Config
	d    *persist.Durable
	snap atomic.Pointer[snapshot]

	sem     chan struct{} // read-admission slots
	waiters atomic.Int64  // reads queued for a slot
	writer  chan struct{} // mutation slot (capacity 1)

	rootCtx    context.Context // cancelled when Drain gives up on in-flight work
	rootCancel context.CancelFunc

	draining atomic.Bool
	drained  chan struct{} // closed when Drain has finished
	drainErr error         // valid after drained is closed
	inflight sync.WaitGroup
	admitMu  sync.RWMutex // orders admissions against Drain; see admit

	wedgeReason atomic.Pointer[string] // non-nil once the mutation path is wedged

	counters Counters
	mux      *http.ServeMux
}

// New builds a Server around d and publishes the initial snapshot
// (flushing any pending coalesced updates through the engine).
func New(cfg Config) (*Server, error) {
	if cfg.Durable == nil {
		return nil, fmt.Errorf("server: Config.Durable is required: %w", graph.ErrInvalidInput)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.MutateTimeout <= 0 {
		cfg.MutateTimeout = 30 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 5 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 8
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		d:          cfg.Durable,
		sem:        make(chan struct{}, cfg.MaxInflight),
		writer:     make(chan struct{}, 1),
		rootCtx:    ctx,
		rootCancel: cancel,
		drained:    make(chan struct{}),
	}
	if err := s.publish(0); err != nil {
		cancel()
		return nil, err
	}
	s.mux = s.routes()
	return s, nil
}

// publish materializes the engine's current result as snapshot version
// v+1 and swaps it in. Callers after New must hold the writer slot.
func (s *Server) publish(prevVersion uint64) error {
	res, err := s.d.Result()
	if err != nil {
		return err
	}
	version := prevVersion + 1
	if hook := s.cfg.Hooks.BeforeSwap; hook != nil {
		hook(version)
	}
	ns := &snapshot{
		res:     res,
		g:       res.Graph(),
		digest:  core.ResultDigest(res),
		version: version,
		gen:     s.d.Gen(),
		opSeq:   s.d.OpSeq(),
	}
	n := res.N
	ns.searchers.New = func() any { return graph.NewSearcher(n) }
	s.snap.Store(ns)
	return nil
}

// Handler returns the HTTP handler serving the spannerd API.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot metadata for callers outside the HTTP path (cmd, tests).
type Stats struct {
	Version  uint64
	N        int
	Edges    int
	Weight   float64
	Digest   uint64
	Gen      uint64
	OpSeq    uint64
	Draining bool
	Wedged   string // empty when the mutation path is healthy
}

// Stats reports the published snapshot's identity and health flags.
func (s *Server) Stats() Stats {
	snap := s.snap.Load()
	st := Stats{
		Version:  snap.version,
		N:        snap.res.N,
		Edges:    len(snap.res.Edges),
		Weight:   snap.res.Weight,
		Digest:   snap.digest,
		Gen:      snap.gen,
		OpSeq:    snap.opSeq,
		Draining: s.draining.Load(),
	}
	if r := s.wedgeReason.Load(); r != nil {
		st.Wedged = *r
	}
	return st
}

// CounterValues returns a point-in-time copy of the event counters.
func (s *Server) CounterValues() map[string]uint64 {
	return map[string]uint64{
		"served":    s.counters.Served.Load(),
		"shed":      s.counters.Shed.Load(),
		"rejected":  s.counters.Rejected.Load(),
		"cancelled": s.counters.Cancelled.Load(),
		"invalid":   s.counters.Invalid.Load(),
		"panics":    s.counters.Panics.Load(),
		"mutations": s.counters.Mutations.Load(),
		"converges": s.counters.Converges.Load(),
	}
}

// wedge marks the mutation path permanently failed (reads keep serving
// the last published snapshot).
func (s *Server) wedge(err error) {
	msg := err.Error()
	s.wedgeReason.CompareAndSwap(nil, &msg)
}

func (s *Server) wedgedErr() error {
	if r := s.wedgeReason.Load(); r != nil {
		return errors.New(*r)
	}
	return nil
}

// Drain performs the graceful shutdown sequence: stop admitting (new
// requests get typed 503 draining responses), wait up to DrainGrace for
// in-flight requests, cancel stragglers (they answer with typed
// cancellation responses — never a dropped connection), then checkpoint
// and close the durable so acknowledged mutations are exactly the WAL
// prefix on disk. ctx bounds the whole sequence; cancelling it skips
// straight to cancelling in-flight work. Concurrent and repeated calls
// are safe: every caller returns the first Drain's outcome.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		select {
		case <-s.drained:
			return s.drainErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(s.drained)
	// An empty critical section is the barrier: once the write lock is
	// ours, every admission that missed the flag has finished its Add, and
	// every later one sees the flag and is rejected.
	s.admitMu.Lock()
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.rootCancel()
		<-done
	case <-ctx.Done():
		s.rootCancel()
		<-done
	}
	s.rootCancel()

	// Serialize with any mutation that was admitted before the flag
	// flipped: once we hold the writer slot, the WAL holds every
	// acknowledged op and nothing more will be appended.
	s.writer <- struct{}{}
	defer func() { <-s.writer }()

	var errs []error
	if s.wedgedErr() == nil {
		if err := s.d.Checkpoint(); err != nil && !errors.Is(err, persist.ErrSimulatedCrash) {
			errs = append(errs, fmt.Errorf("server: drain checkpoint: %w", err))
		}
	}
	if err := s.d.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server: drain close: %w", err))
	}
	s.drainErr = errors.Join(errs...)
	return s.drainErr
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitersGauge reports the instantaneous read-admission queue length
// (test/bench instrumentation).
func (s *Server) WaitersGauge() int64 { return s.waiters.Load() }
