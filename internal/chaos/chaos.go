package chaos

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Fault names one injectable fault class.
type Fault int

const (
	// FaultNone injects nothing; the engine must complete identically.
	FaultNone Fault = iota
	// FaultPanic panics inside the AtCertify-th certification — in a
	// worker goroutine when the engine fans certifications out, in a
	// serial section otherwise. The engine must convert it into a typed
	// ErrEnginePanic, never crash the process.
	FaultPanic
	// FaultCancel cancels the build's context from inside the
	// AtCertify-th certification, modelling a caller cancelling at a
	// randomized scan position. The engine must return ErrCancelled with
	// the exact decided prefix.
	FaultCancel
	// FaultStall sleeps inside the AtCertify-th certification. Paired
	// with a budget deadline it models a stalled worker: the deadline
	// passes mid-certification and the engine must abort cleanly.
	FaultStall
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultCancel:
		return "cancel"
	case FaultStall:
		return "stall"
	}
	return "unknown"
}

// Schedule is one deterministic fault schedule: the fault class and the
// exact trigger point it fires at. The zero Schedule injects nothing.
type Schedule struct {
	Fault Fault
	// AtCertify fires FaultPanic/FaultCancel/FaultStall at the k-th
	// OnCertify call (1-based, counted across the whole run — for a
	// maintained spanner that spans the initial build and every replay).
	// A trigger past the run's last certification simply never fires.
	AtCertify int64
	// Stall is how long the stalled certification sleeps.
	Stall time.Duration
	// AtRebase redirects FaultPanic/FaultCancel/FaultStall to the rebase
	// window instead of the certification path: the fault fires inside a
	// graph-mode IncrementalSpanner.Flush after the keep prefix is
	// decided, before the hub oracle rebases onto it.
	AtRebase bool
}

// RandomSchedule draws a schedule for the given fault class: the certify
// trigger lands uniformly in [1, maxCertify], so some schedules fire
// mid-scan and some never fire.
func RandomSchedule(rng *rand.Rand, fault Fault, maxCertify int64, stall time.Duration) Schedule {
	s := Schedule{Fault: fault, Stall: stall}
	if maxCertify > 0 {
		s.AtCertify = 1 + rng.Int63n(maxCertify)
	}
	return s
}

// Injector arms one Schedule: Arm returns the context the engine must run
// under and the hooks to install as the engine's Inject option. Each fault
// fires at most once, and every hook is safe for concurrent calls (the
// engines invoke OnCertify from worker goroutines).
type Injector struct {
	sched  Schedule
	cancel context.CancelFunc
	certs  atomic.Int64
	fired  atomic.Bool
}

// New returns an injector for the schedule.
func New(s Schedule) *Injector { return &Injector{sched: s} }

// Arm wires the schedule to a context derived from parent (cancellable by
// FaultCancel) and the engines' injection hooks. Call Release when the run
// is over to release the derived context.
func (in *Injector) Arm(parent context.Context) (context.Context, core.InjectionHooks) {
	ctx := parent
	if in.sched.Fault == FaultCancel {
		ctx, in.cancel = context.WithCancel(parent)
	}
	return ctx, core.InjectionHooks{OnCertify: in.onCertify, OnRebase: in.onRebase}
}

// Release releases the cancellable context Arm derived; safe to call
// whether or not the fault fired.
func (in *Injector) Release() {
	if in.cancel != nil {
		in.cancel()
	}
}

// Fired reports whether the certify-triggered fault fired.
func (in *Injector) Fired() bool { return in.fired.Load() }

// Certifications reports how many certification points the run passed.
func (in *Injector) Certifications() int64 { return in.certs.Load() }

func (in *Injector) onCertify(graph.Edge) {
	hit := in.certs.Add(1) == in.sched.AtCertify
	if in.sched.AtRebase || in.sched.AtCertify <= 0 || !hit {
		return
	}
	switch in.sched.Fault {
	case FaultPanic:
		in.fired.Store(true)
		panic("chaos: injected certification panic")
	case FaultCancel:
		in.fired.Store(true)
		in.cancel()
	case FaultStall:
		in.fired.Store(true)
		time.Sleep(in.sched.Stall)
	}
}

// onRebase fires the scheduled fault inside the maintained spanner's
// rebase window, at most once — a retried flush revisits the window, and
// recovery is the property under test.
func (in *Injector) onRebase(int) {
	if !in.sched.AtRebase {
		return
	}
	switch in.sched.Fault {
	case FaultPanic:
		if in.fired.CompareAndSwap(false, true) {
			panic("chaos: injected rebase panic")
		}
	case FaultCancel:
		if in.fired.CompareAndSwap(false, true) {
			in.cancel()
		}
	case FaultStall:
		if in.fired.CompareAndSwap(false, true) {
			time.Sleep(in.sched.Stall)
		}
	}
}
