// Package metrics is the engine-wide metrics registry: monotonic counters
// over every query the process has executed, fed once at query end from the
// already-merged per-worker stats — no atomics or allocations ever enter the
// per-row or per-morsel hot paths.
//
// The default registry is published through expvar under the key "inkfuse",
// so any HTTP server that mounts expvar.Handler (or the default
// /debug/vars route) exports the engine's counters for scraping; Dump
// renders the same snapshot as text for logs and CLIs.
package metrics

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"inkfuse/internal/stats"
)

// Registry accumulates engine-wide counters. All methods are safe for
// concurrent use; counters are monotonic except MemPeakBytes (a high-water
// gauge).
type Registry struct {
	queriesStarted   atomic.Int64
	queriesSucceeded atomic.Int64
	queriesFailed    atomic.Int64
	queriesCanceled  atomic.Int64

	tuples          atomic.Int64
	emittedRows     atomic.Int64
	panicsRecovered atomic.Int64
	compileErrors   atomic.Int64
	degradedQueries atomic.Int64

	// Hash-table behaviour, fed from the per-query counters.
	htLocalHitsTotal  atomic.Int64
	htSpillsTotal     atomic.Int64
	htBloomSkipsTotal atomic.Int64

	queryNanos   atomic.Int64
	compileNanos atomic.Int64

	memPeakBytes atomic.Int64

	// Scheduler counters, fed by internal/sched: admissions, load shedding,
	// and the point-in-time running/queued gauges every pool mirrors here so
	// /debug/vars and /metrics distinguish "busy" from "overloaded".
	schedAdmitted      atomic.Int64
	schedShed          atomic.Int64
	schedQueueTimeouts atomic.Int64
	schedDrainCanceled atomic.Int64
	schedRunning       atomic.Int64 // gauge: admitted queries now
	schedQueued        atomic.Int64 // gauge: admissions waiting now

	// Plan-cache counters, fed by internal/plancache: fingerprint lookups
	// that reused a cached plan+artifact instance, ones that had to build
	// fresh, and LRU evictions.
	plancacheHits      atomic.Int64
	plancacheMisses    atomic.Int64
	plancacheEvictions atomic.Int64
}

// Default is the process-wide registry the executor feeds; it is exported
// via expvar as "inkfuse".
var Default = &Registry{}

func init() {
	expvar.Publish("inkfuse", expvar.Func(func() any { return Default.Snapshot() }))
}

// QueryStarted records a query entering the engine.
func (r *Registry) QueryStarted() {
	r.queriesStarted.Add(1)
}

// QueryDone folds a finished query into the registry. c carries the query's
// merged counters (may be nil when the query died before executing), wall its
// end-to-end time, err its terminal error (nil on success), and canceled
// whether that error was a context cancellation or deadline. degraded marks
// a successful query that ran with a failed background compile.
func (r *Registry) QueryDone(c *stats.Counters, wall time.Duration, err error, canceled, degraded bool) {
	switch {
	case err == nil:
		r.queriesSucceeded.Add(1)
	case canceled:
		r.queriesCanceled.Add(1)
	default:
		r.queriesFailed.Add(1)
	}
	if degraded {
		r.degradedQueries.Add(1)
	}
	r.queryNanos.Add(int64(wall))
	if c == nil {
		return
	}
	r.tuples.Add(c.Tuples)
	r.emittedRows.Add(c.EmittedRows)
	r.panicsRecovered.Add(c.PanicsRecovered)
	r.compileErrors.Add(c.CompileErrors)
	r.compileNanos.Add(int64(c.CompileTime))
	r.htLocalHitsTotal.Add(c.HTLocalHits)
	r.htSpillsTotal.Add(c.HTSpills)
	r.htBloomSkipsTotal.Add(c.HTBloomSkips)
	// High-water gauge: keep the largest per-query memory peak observed.
	for {
		cur := r.memPeakBytes.Load()
		if c.MemPeakBytes <= cur || r.memPeakBytes.CompareAndSwap(cur, c.MemPeakBytes) {
			break
		}
	}
}

// SchedAdmitted records one query admission into a worker pool.
func (r *Registry) SchedAdmitted() {
	r.schedAdmitted.Add(1)
	r.schedRunning.Add(1)
}

// SchedReleased records one admitted query releasing its slot.
func (r *Registry) SchedReleased() {
	r.schedRunning.Add(-1)
}

// SchedShed records one query shed because the admission queue was full.
func (r *Registry) SchedShed() {
	r.schedShed.Add(1)
}

// SchedQueueTimeout records one queued admission abandoned by its context.
func (r *Registry) SchedQueueTimeout() {
	r.schedQueueTimeouts.Add(1)
}

// SchedDrainCanceled records n queries canceled by a drain deadline.
func (r *Registry) SchedDrainCanceled(n int64) {
	r.schedDrainCanceled.Add(n)
}

// SchedQueued moves the queued-admissions gauge by delta (+1 on enqueue,
// -1 on admit/abandon).
func (r *Registry) SchedQueued(delta int64) {
	r.schedQueued.Add(delta)
}

// PlanCacheHit records one fingerprint lookup served from the cache.
func (r *Registry) PlanCacheHit() {
	r.plancacheHits.Add(1)
}

// PlanCacheMiss records one fingerprint lookup that built a fresh plan.
func (r *Registry) PlanCacheMiss() {
	r.plancacheMisses.Add(1)
}

// PlanCacheEvicted records n cached entries evicted by the LRU bound.
func (r *Registry) PlanCacheEvicted(n int64) {
	r.plancacheEvictions.Add(n)
}

// Snapshot is a point-in-time copy of the registry, in export form. Field
// names double as the exported metric names.
type Snapshot struct {
	QueriesStarted   int64 `json:"queries_started"`
	QueriesSucceeded int64 `json:"queries_succeeded"`
	QueriesFailed    int64 `json:"queries_failed"`
	QueriesCanceled  int64 `json:"queries_canceled"`
	DegradedQueries  int64 `json:"degraded_queries"`
	Tuples           int64 `json:"tuples"`
	EmittedRows      int64 `json:"emitted_rows"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	CompileErrors    int64 `json:"compile_errors"`
	QueryNanos       int64 `json:"query_nanos"`
	CompileNanos     int64 `json:"compile_nanos"`
	MemPeakBytes     int64 `json:"mem_peak_bytes"`

	HTLocalHitsTotal  int64 `json:"ht_local_hits_total"`
	HTSpillsTotal     int64 `json:"ht_spills_total"`
	HTBloomSkipsTotal int64 `json:"ht_bloom_skips_total"`

	SchedAdmitted      int64 `json:"sched_admitted"`
	SchedShed          int64 `json:"sched_shed"`
	SchedQueueTimeouts int64 `json:"sched_queue_timeouts"`
	SchedDrainCanceled int64 `json:"sched_drain_canceled"`
	SchedRunning       int64 `json:"sched_running"`
	SchedQueued        int64 `json:"sched_queued"`

	PlanCacheHits      int64 `json:"plancache_hits"`
	PlanCacheMisses    int64 `json:"plancache_misses"`
	PlanCacheEvictions int64 `json:"plancache_evictions"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		QueriesStarted:   r.queriesStarted.Load(),
		QueriesSucceeded: r.queriesSucceeded.Load(),
		QueriesFailed:    r.queriesFailed.Load(),
		QueriesCanceled:  r.queriesCanceled.Load(),
		DegradedQueries:  r.degradedQueries.Load(),
		Tuples:           r.tuples.Load(),
		EmittedRows:      r.emittedRows.Load(),
		PanicsRecovered:  r.panicsRecovered.Load(),
		CompileErrors:    r.compileErrors.Load(),
		QueryNanos:       r.queryNanos.Load(),
		CompileNanos:     r.compileNanos.Load(),
		MemPeakBytes:     r.memPeakBytes.Load(),

		HTLocalHitsTotal:  r.htLocalHitsTotal.Load(),
		HTSpillsTotal:     r.htSpillsTotal.Load(),
		HTBloomSkipsTotal: r.htBloomSkipsTotal.Load(),

		SchedAdmitted:      r.schedAdmitted.Load(),
		SchedShed:          r.schedShed.Load(),
		SchedQueueTimeouts: r.schedQueueTimeouts.Load(),
		SchedDrainCanceled: r.schedDrainCanceled.Load(),
		SchedRunning:       r.schedRunning.Load(),
		SchedQueued:        r.schedQueued.Load(),

		PlanCacheHits:      r.plancacheHits.Load(),
		PlanCacheMisses:    r.plancacheMisses.Load(),
		PlanCacheEvictions: r.plancacheEvictions.Load(),
	}
}

// Dump renders the snapshot as sorted "name value" lines — the text export.
func (r *Registry) Dump() string {
	s := r.Snapshot()
	rows := map[string]int64{
		"queries_started":   s.QueriesStarted,
		"queries_succeeded": s.QueriesSucceeded,
		"queries_failed":    s.QueriesFailed,
		"queries_canceled":  s.QueriesCanceled,
		"degraded_queries":  s.DegradedQueries,
		"tuples":            s.Tuples,
		"emitted_rows":      s.EmittedRows,
		"panics_recovered":  s.PanicsRecovered,
		"compile_errors":    s.CompileErrors,
		"query_nanos":       s.QueryNanos,
		"compile_nanos":     s.CompileNanos,
		"mem_peak_bytes":    s.MemPeakBytes,

		"ht_local_hits_total":  s.HTLocalHitsTotal,
		"ht_spills_total":      s.HTSpillsTotal,
		"ht_bloom_skips_total": s.HTBloomSkipsTotal,

		"sched_admitted":       s.SchedAdmitted,
		"sched_shed":           s.SchedShed,
		"sched_queue_timeouts": s.SchedQueueTimeouts,
		"sched_drain_canceled": s.SchedDrainCanceled,
		"sched_running":        s.SchedRunning,
		"sched_queued":         s.SchedQueued,

		"plancache_hits":      s.PlanCacheHits,
		"plancache_misses":    s.PlanCacheMisses,
		"plancache_evictions": s.PlanCacheEvictions,
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "inkfuse_%s %d\n", n, rows[n])
	}
	return b.String()
}
