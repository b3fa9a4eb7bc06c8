// Package faultinject provides deterministic fault-injection points for the
// engine's robustness layer. Production code calls the hook functions at
// well-known points; tests arm those points with a Fault describing when the
// fault fires (every call, the Nth call, or with a seeded probability) and
// what it does (panic, return an error, inject latency).
//
// Everything is off by default: with no armed points the hooks are a single
// atomic load, so the injection points can stay in hot paths permanently.
package faultinject

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error produced by an armed error point whose
// Fault does not carry an explicit Err.
var ErrInjected = errors.New("faultinject: injected failure")

// Engine injection points. Each constant names one hook call site; tests arm
// them via Arm and the site fires through Inject or Delay.
const (
	// ExecMorsel fires inside the worker morsel loop, before the morsel is
	// handed to the backend (panic-capable; armed Err values are panicked).
	ExecMorsel = "exec/morsel"
	// ExecFinalize fires at pipeline finalization (seal + merge), on the
	// scheduler goroutine (panic-capable).
	ExecFinalize = "exec/finalize"
	// ExecCompile fires in the compilation step every fusing backend runs:
	// the compiling and ROF backends in the foreground, where a fired fault
	// fails the query, and the hybrid backend's background jobs, where it
	// degrades the pipeline to the interpreter (error point).
	ExecCompile = "exec/compile"
	// ExecCompileDelay adds latency to the compile step's interruptible
	// wait, on top of the configured LatencyModel (delay point).
	ExecCompileDelay = "exec/compile-delay"
	// ExecHybridCompile fires as the hybrid backend launches a pipeline's
	// background compilation job (error point: a fired fault fails the job
	// permanently, published before the query runs its first morsel).
	ExecHybridCompile = "exec/hybrid-compile"
	// ServeParse fires in the inkserve request path after the request body is
	// decoded (error point: a fired fault fails the request as a bad request).
	ServeParse = "serve/parse"
	// ServeExecute fires just before inkserve hands the query to the engine
	// (panic-capable; exercises the handler's isolation).
	ServeExecute = "serve/execute"
	// ServeRespond fires before the response body is written (panic-capable).
	ServeRespond = "serve/respond"
	// SchedAdmit fires at the top of Pool.Admit (error point: a fired fault
	// fails the admission before the query enters the queue).
	SchedAdmit = "sched/admit"
	// SchedDispatch fires in a pool worker just before it runs a task
	// (panic-capable: panics are recovered into a typed task failure that
	// fails only that query).
	SchedDispatch = "sched/dispatch"
	// SchedDrain fires at the start of Pool.Close (error point: a fired fault
	// skips the graceful wait and exercises the force-cancellation path).
	SchedDrain = "sched/drain"
)

// Fault describes when an armed point fires and what it injects.
type Fault struct {
	// Nth fires the fault only on the Nth passage through the point
	// (1-based). 0 means every passage.
	Nth int64
	// Prob, when > 0, fires the fault with this probability per passage
	// (seeded by Seed for reproducibility) instead of the Nth rule.
	Prob float64
	// Seed seeds the per-point RNG used by Prob.
	Seed int64
	// Panic, when non-nil, is passed to panic() when the fault fires.
	Panic any
	// Err is returned by Inject when the fault fires and Panic is nil.
	// nil defaults to ErrInjected at error points.
	Err error
	// Delay is injected latency: Inject sleeps it inline before applying
	// Panic/Err; Delay-only faults (no Panic, no Err) just slow the point.
	// The Delay hook instead returns it to the caller for interruptible
	// waits.
	Delay time.Duration
}

type armed struct {
	f     Fault
	calls atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// fires decides whether this passage through the point triggers the fault.
func (a *armed) fires() bool {
	n := a.calls.Add(1)
	if a.f.Prob > 0 {
		a.rngMu.Lock()
		defer a.rngMu.Unlock()
		return a.rng.Float64() < a.f.Prob
	}
	if a.f.Nth > 0 {
		return n == a.f.Nth
	}
	return true
}

var (
	armedCount atomic.Int32
	mu         sync.RWMutex
	points     = map[string]*armed{}
)

// Arm activates a fault at a point, replacing any previous fault there.
func Arm(point string, f Fault) {
	a := &armed{f: f}
	if f.Prob > 0 {
		a.rng = rand.New(rand.NewSource(f.Seed))
	}
	mu.Lock()
	if _, ok := points[point]; !ok {
		armedCount.Add(1)
	}
	points[point] = a
	mu.Unlock()
}

// Disarm deactivates a point; unknown points are a no-op.
func Disarm(point string) {
	mu.Lock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armedCount.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	points = map[string]*armed{}
	armedCount.Store(0)
	mu.Unlock()
}

// Calls reports how many times an armed point has been passed (0 if the
// point is not armed). Useful for asserting a hook site is actually wired.
func Calls(point string) int64 {
	mu.RLock()
	a := points[point]
	mu.RUnlock()
	if a == nil {
		return 0
	}
	return a.calls.Load()
}

func lookup(point string) *armed {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.RLock()
	a := points[point]
	mu.RUnlock()
	return a
}

// Inject evaluates a point inline: it returns nil when the point is unarmed
// or the fault does not fire this passage; otherwise it sleeps Fault.Delay,
// then panics with Fault.Panic if set, and otherwise returns Fault.Err
// (ErrInjected if nil). Delay-only faults sleep and return nil.
func Inject(point string) error {
	a := lookup(point)
	if a == nil || !a.fires() {
		return nil
	}
	if a.f.Delay > 0 {
		time.Sleep(a.f.Delay)
	}
	if a.f.Panic != nil {
		panic(a.f.Panic)
	}
	if a.f.Err != nil {
		return a.f.Err
	}
	if a.f.Delay > 0 {
		return nil // delay-only fault
	}
	return ErrInjected
}

// Delay evaluates a delay point: it returns the armed Fault.Delay when the
// fault fires, without sleeping, so callers can wait interruptibly (e.g.
// alongside a cancellation channel). Returns 0 when unarmed or not firing.
func Delay(point string) time.Duration {
	a := lookup(point)
	if a == nil || !a.fires() {
		return 0
	}
	return a.f.Delay
}
