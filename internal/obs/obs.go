// Package obs is the engine's process-wide observability registry: flat
// counters and gauges, lock-free fixed-bucket histograms for latency and
// throughput distributions grouped into label families (one child per
// execution backend), and the canonical per-query log event.
//
// The flat values come from two declarations, each made once: the event
// counters below (queries, scheduler, plan cache) and the process totals of
// the stats telemetry schema (stats.Fields with the Totals surface). The
// Prometheus text, the MetricsText dump and the expvar view all render the
// one sorted list samples returns. Flat values are fed at query end,
// admission or cache lookup — never from per-row or per-morsel hot paths.
//
// The recording discipline matches the rest of the engine's observability
// stack: histograms are fed at morsel granularity or coarser (never per row
// or per chunk), and an observation is two atomic adds plus a binary search
// over ~25 bucket bounds — no locks, no allocations, safe for every worker
// concurrently.
package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/stats"
)

// LatencyBounds are the default histogram bounds for durations, in seconds:
// a 1-2-5 series from 1µs to 100s. Morsels land in the µs-ms decades,
// queries in the ms-s decades; one layout serves both so summaries are
// comparable.
var LatencyBounds = decades(1e-6, 1e2)

// ThroughputBounds are the default bounds for rates (rows/sec): a 1-2-5
// series from 1K/s to 10G/s.
var ThroughputBounds = decades(1e3, 1e10)

// decades builds a 1-2-5 series covering [lo, hi].
func decades(lo, hi float64) []float64 {
	var out []float64
	for d := lo; d <= hi*1.0001; d *= 10 {
		for _, m := range []float64{1, 2, 5} {
			if v := d * m; v <= hi*1.0001 {
				out = append(out, v)
			}
		}
	}
	return out
}

// atomicFloat is a float64 accumulated with CAS (for histogram sums).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets hold the count of
// observations v <= bound[i] (non-cumulative internally; rendered
// cumulatively, Prometheus-style, with a +Inf overflow bucket). All methods
// are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Int64
}

// NewHistogram creates a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. Values in the +Inf bucket clamp
// to the highest bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c < rank || c == 0 {
			cum += c
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-cum)/c
	}
	return h.bounds[len(h.bounds)-1]
}

// Family is one named histogram metric with a single label dimension
// (default "backend"); children are created on first use and live forever,
// matching the bounded label cardinality.
type Family struct {
	Name  string
	Help  string
	Label string // label name, e.g. "backend" or "outcome"

	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*Histogram
}

// NewFamily creates an empty histogram family labeled by "backend".
func NewFamily(name, help string, bounds []float64) *Family {
	return NewLabeledFamily(name, help, "backend", bounds)
}

// NewLabeledFamily creates an empty histogram family with an explicit label
// dimension name.
func NewLabeledFamily(name, help, label string, bounds []float64) *Family {
	return &Family{Name: name, Help: help, Label: label, bounds: bounds, kids: map[string]*Histogram{}}
}

// With returns the child histogram for a label value, creating it on first
// use. Callers on hot paths resolve the child once (per query or pipeline)
// and then observe through the returned pointer.
func (f *Family) With(label string) *Histogram {
	f.mu.RLock()
	h := f.kids[label]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.kids[label]; h == nil {
		h = NewHistogram(f.bounds)
		f.kids[label] = h
	}
	return h
}

// labels returns the child label values, sorted for deterministic rendering.
func (f *Family) labels() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.kids))
	for l := range f.kids {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Event names one process-wide event counter or gauge. The engine layers
// feed them through Registry.Add.
type Event uint8

// The event counters, fed by exec (queries), sched (admission) and
// plancache (fingerprint lookups).
const (
	QueriesStarted Event = iota
	QueriesSucceeded
	QueriesFailed
	QueriesCanceled
	DegradedQueries
	QueryNanos
	SchedAdmitted
	SchedShed
	SchedQueueTimeouts
	SchedDrainCanceled
	SchedRunning
	SchedQueued
	PlanCacheHits
	PlanCacheMisses
	PlanCacheEvictions
	numEvents
)

// events declares each event counter once: exported name, help, and whether
// it is a point-in-time gauge rather than a monotonic counter.
var events = [numEvents]struct {
	name, help string
	gauge      bool
}{
	QueriesStarted:     {"queries_started", "Queries that entered the engine.", false},
	QueriesSucceeded:   {"queries_succeeded", "Queries that completed successfully.", false},
	QueriesFailed:      {"queries_failed", "Queries that failed.", false},
	QueriesCanceled:    {"queries_canceled", "Queries canceled or past their deadline.", false},
	DegradedQueries:    {"degraded_queries", "Successful queries that ran degraded after a failed background compile.", false},
	QueryNanos:         {"query_nanos", "Total query wall time in nanoseconds.", false},
	SchedAdmitted:      {"sched_admitted", "Queries admitted into the worker pool.", false},
	SchedShed:          {"sched_shed", "Queries shed because the admission queue was full.", false},
	SchedQueueTimeouts: {"sched_queue_timeouts", "Queued admissions abandoned by their context.", false},
	SchedDrainCanceled: {"sched_drain_canceled", "Queries canceled by a drain deadline.", false},
	SchedRunning:       {"sched_running", "Admitted queries running now.", true},
	SchedQueued:        {"sched_queued", "Admissions waiting in the queue now.", true},
	PlanCacheHits:      {"plancache_hits", "Fingerprint lookups served from the plan cache.", false},
	PlanCacheMisses:    {"plancache_misses", "Fingerprint lookups that built a fresh plan.", false},
	PlanCacheEvictions: {"plancache_evictions", "Plan-cache entries evicted by the LRU bound.", false},
}

// Registry is the process-wide observability state: the event counters,
// the stats schema's process totals, and the histogram families. The
// exported distributions are labeled by backend only: per-pipeline and
// per-suboperator breakdowns have unbounded name cardinality and live in the
// per-query trace / EXPLAIN ANALYZE instead (DESIGN.md §9). All methods are
// safe for concurrent use.
type Registry struct {
	events [numEvents]atomic.Int64
	// totals is indexed like stats.Fields; only Totals entries move.
	totals []atomic.Int64

	// QueryLatency is end-to-end query wall time, per backend.
	QueryLatency *Family
	// MorselLatency is per-morsel execution time (the scheduler's unit of
	// work), per backend. Fed once per morsel.
	MorselLatency *Family
	// QueryRows is per-query source-tuple throughput (rows/sec), per backend.
	QueryRows *Family
	// QueueWait is the time a query spent in the scheduler's admission queue,
	// labeled by outcome ("admitted", "shed", "timeout", "draining"). Fed by
	// internal/sched once per admission attempt.
	QueueWait *Family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		totals:        make([]atomic.Int64, len(stats.Fields)),
		QueryLatency:  NewFamily("inkfuse_query_seconds", "End-to-end query latency by backend.", LatencyBounds),
		MorselLatency: NewFamily("inkfuse_morsel_seconds", "Per-morsel execution latency by backend.", LatencyBounds),
		QueryRows:     NewFamily("inkfuse_query_rows_per_second", "Per-query source-row throughput by backend.", ThroughputBounds),
		QueueWait:     NewLabeledFamily("inkfuse_queue_wait_seconds", "Admission-queue wait by outcome.", "outcome", LatencyBounds),
	}
}

// Default is the process-wide registry, fed by internal/exec at query end
// (plus one per-morsel latency observation), by internal/sched and by
// internal/plancache. It is published through expvar as "inkfuse".
var Default = NewRegistry()

func init() {
	expvar.Publish("inkfuse", expvar.Func(func() any { return Default.Snapshot() }))
}

// Add moves an event counter by n (gauges move by ±1).
func (r *Registry) Add(e Event, n int64) {
	r.events[e].Add(n)
}

// QueryDone folds one finished query into the registry: its outcome, its
// wall time, the process totals of its merged counters, and the latency and
// throughput histograms of its backend. c may be nil when the query died
// before executing; canceled marks a cancellation or deadline error, and
// degraded a successful query that ran degraded.
func (r *Registry) QueryDone(backend string, c *stats.Counters, wall time.Duration, err error, canceled, degraded bool) {
	switch {
	case err == nil:
		r.Add(QueriesSucceeded, 1)
	case canceled:
		r.Add(QueriesCanceled, 1)
	default:
		r.Add(QueriesFailed, 1)
	}
	if degraded {
		r.Add(DegradedQueries, 1)
	}
	r.Add(QueryNanos, int64(wall))
	var tuples int64
	if c != nil {
		tuples = c.Tuples
		for i := range stats.Fields {
			f := &stats.Fields[i]
			if f.On&stats.Totals == 0 {
				continue
			}
			v, t := *f.Get(c), &r.totals[i]
			if f.Merge == stats.Sum {
				t.Add(v)
				continue
			}
			for cur := t.Load(); v > cur && !t.CompareAndSwap(cur, v); cur = t.Load() {
			}
		}
	}
	r.ObserveQuery(backend, wall, tuples)
}

// ObserveQuery feeds one finished query's wall-time latency and source-row
// throughput into the histograms.
func (r *Registry) ObserveQuery(backend string, wall time.Duration, tuples int64) {
	r.QueryLatency.With(backend).ObserveDuration(wall)
	if s := wall.Seconds(); s > 0 && tuples > 0 {
		r.QueryRows.With(backend).Observe(float64(tuples) / s)
	}
}

// sample is one flat registry value in export form.
type sample struct {
	Name  string // exported name without the "inkfuse_" prefix
	Help  string
	Gauge bool
	Value int64
}

// samples lists every flat value — the event counters and the stats
// schema's process totals — sorted by name. Every flat surface renders it.
func (r *Registry) samples() []sample {
	out := make([]sample, 0, len(events)+len(stats.Fields))
	for e := range events {
		d := &events[e]
		out = append(out, sample{d.name, d.help, d.gauge, r.events[e].Load()})
	}
	for i := range stats.Fields {
		if f := &stats.Fields[i]; f.On&stats.Totals != 0 {
			out = append(out, sample{f.NameOn(stats.Totals), f.Help, f.Merge == stats.Max, r.totals[i].Load()})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Snapshot is the expvar view: every flat value by name.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, s := range r.samples() {
		out[s.Name] = s.Value
	}
	return out
}

// Dump renders the flat values as sorted "inkfuse_<name> <value>" lines —
// the text export for logs and CLIs.
func (r *Registry) Dump() string {
	var b strings.Builder
	for _, s := range r.samples() {
		fmt.Fprintf(&b, "inkfuse_%s %d\n", s.Name, s.Value)
	}
	return b.String()
}

// PrometheusText renders the registry in Prometheus text exposition format:
// the flat values followed by the histograms (cumulative buckets, sum,
// count). Every metric carries HELP and TYPE lines, including a histogram
// family that has no observations yet.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	for _, s := range r.samples() {
		kind := "counter"
		if s.Gauge {
			kind = "gauge"
		}
		fmt.Fprintf(&b, "# HELP inkfuse_%s %s\n# TYPE inkfuse_%s %s\ninkfuse_%s %d\n",
			s.Name, s.Help, s.Name, kind, s.Name, s.Value)
	}
	for _, f := range []*Family{r.QueryLatency, r.MorselLatency, r.QueryRows, r.QueueWait} {
		writeFamily(&b, f)
	}
	return b.String()
}

func writeFamily(b *strings.Builder, f *Family) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", f.Name, f.Help, f.Name)
	for _, l := range f.labels() {
		h := f.With(l)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", f.Name, f.Label, l, formatBound(bound), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", f.Name, f.Label, l, cum)
		fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", f.Name, f.Label, l, h.Sum())
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", f.Name, f.Label, l, h.Count())
	}
}

// formatBound renders a bucket bound without float noise ("0.001", "50000").
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}
