// Package stats collects engine-internal execution counters. They stand in
// for the hardware performance counters of the paper's Table I (see
// DESIGN.md §2): VM value operations approximate retired instructions, and
// materialized buffer traffic plus hash-table probe volume approximate the
// memory-system behaviour the paper attributes LLC-miss differences to.
//
// Fields is the one telemetry schema: every Counters field is declared there
// once, with its name, unit, help, merge rule and the surfaces that render
// it. Merging, the process totals, the query log, the EXPLAIN ANALYZE /
// trace "tables:" lines, the bench JSON and benchdiff all iterate it, so
// adding a counter touches the struct, its Fields entry and its increment.
package stats

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Counters accumulates per-worker execution statistics. Workers own private
// instances (no atomics on hot paths) that are merged after the query.
type Counters struct {
	// Tuples is the number of tuples entering pipelines (source rows).
	Tuples int64
	// VMOps counts value-level operations executed by compiled programs and
	// primitives (one per row per operator) — the instruction proxy.
	VMOps int64
	// MaterializedBytes counts bytes written into tuple buffers between
	// steps — the vectorized interpreter's extra memory traffic.
	MaterializedBytes int64
	// PrimitiveCalls counts vectorized-primitive invocations.
	PrimitiveCalls int64
	// FusedCalls counts fused-program invocations (one per morsel).
	FusedCalls int64
	// HTProbes / HTMatches count hash-table lookups and produced matches.
	HTProbes  int64
	HTMatches int64
	// HTInserts counts hash-table inserts (join build + new agg groups).
	HTInserts int64
	// HTLocalHits counts aggregation lookups absorbed by a worker's bounded
	// thread-local pre-aggregation table (no shard lock taken).
	HTLocalHits int64
	// HTSpills counts local pre-aggregation group rows merged into the
	// worker's sharded table at morsel boundaries or on overflow.
	HTSpills int64
	// HTBloomSkips counts join probes answered "definitely absent" by the
	// build-side bloom/tag filter without touching bucket memory.
	HTBloomSkips int64
	// EmittedRows counts rows emitted by sinks.
	EmittedRows int64
	// MorselsVectorized / MorselsCompiled count the hybrid backend's routing.
	MorselsVectorized int64
	MorselsCompiled   int64
	// CompileWait is the wall-clock time the query spent with no compiled
	// code available while a backend wanted it (the dashed bars of Fig 10).
	CompileWait time.Duration
	// CompileTime is the total time spent compiling (background or not).
	CompileTime time.Duration
	// CompileErrors counts failed compilation jobs. Background (hybrid)
	// failures degrade the pipeline to the vectorized interpreter instead of
	// failing the query, so a nonzero count with a successful result means
	// the engine ran degraded.
	CompileErrors int64
	// PanicsRecovered counts panics the lifecycle layer caught and converted
	// into per-query errors (one per failed morsel or finalization).
	PanicsRecovered int64
	// MemPeakBytes is the high-water mark of budget-accounted runtime-state
	// bytes (arenas, hash-table bookkeeping); 0 unless a budget was set.
	MemPeakBytes int64
}

// Surface is a bitmask of the telemetry surfaces that render a counter.
type Surface uint8

const (
	// Totals: the process-wide registry (internal/obs), exported on
	// /metrics, /debug/vars and MetricsText.
	Totals Surface = 1 << iota
	// QueryLog: the attributes of the canonical per-query event.
	QueryLog
	// Tables: the EXPLAIN ANALYZE "== tables:" / "-- tables:" lines and the
	// trace dump's "tables:" line.
	Tables
	// Bench: the bench JSON cell and benchdiff's counter deltas.
	Bench
)

// Merge is how two values of one counter combine.
type Merge uint8

const (
	// Sum adds the values (every monotonic counter).
	Sum Merge = iota
	// Max keeps the larger value (high-water gauges).
	Max
)

// Field is one entry of the telemetry schema.
type Field struct {
	// Get returns the field's storage; durations convert to *int64.
	Get func(*Counters) *int64
	// Name is the snake-case name on every surface, except where Total or
	// the Tables rule (see NameOn) say otherwise.
	Name string
	// Unit is what one increment counts; "ns" marks a duration.
	Unit string
	// Help is the one-line description /metrics exports.
	Help  string
	Merge Merge
	// On is the set of surfaces that render the counter.
	On Surface
	// Total overrides Name for the process total, for the exported names
	// that predate the schema.
	Total string
}

// Fields is the telemetry schema: one entry per Counters field, in struct
// order.
var Fields = []Field{
	{Get: func(c *Counters) *int64 { return &c.Tuples }, Name: "tuples", Unit: "tuples",
		Help: "Source tuples entering pipelines.", On: Totals | QueryLog},
	{Get: func(c *Counters) *int64 { return &c.VMOps }, Name: "vm_ops", Unit: "ops",
		Help: "Value-level operations executed by compiled programs and primitives."},
	{Get: func(c *Counters) *int64 { return &c.MaterializedBytes }, Name: "materialized_bytes", Unit: "bytes",
		Help: "Bytes written into tuple buffers between steps."},
	{Get: func(c *Counters) *int64 { return &c.PrimitiveCalls }, Name: "primitive_calls", Unit: "calls",
		Help: "Vectorized-primitive invocations."},
	{Get: func(c *Counters) *int64 { return &c.FusedCalls }, Name: "fused_calls", Unit: "calls",
		Help: "Fused-program invocations."},
	{Get: func(c *Counters) *int64 { return &c.HTProbes }, Name: "ht_probes", Unit: "probes",
		Help: "Hash-table lookups."},
	{Get: func(c *Counters) *int64 { return &c.HTMatches }, Name: "ht_matches", Unit: "rows",
		Help: "Hash-table matches produced."},
	{Get: func(c *Counters) *int64 { return &c.HTInserts }, Name: "ht_inserts", Unit: "rows",
		Help: "Hash-table inserts (join build rows and new groups)."},
	{Get: func(c *Counters) *int64 { return &c.HTLocalHits }, Name: "ht_local_hits", Unit: "lookups",
		Help: "Aggregation lookups absorbed by thread-local pre-aggregation tables.",
		On:   Totals | QueryLog | Tables | Bench, Total: "ht_local_hits_total"},
	{Get: func(c *Counters) *int64 { return &c.HTSpills }, Name: "ht_spills", Unit: "rows",
		Help: "Thread-local pre-aggregation rows merged into the shared tables.",
		On:   Totals | QueryLog | Tables | Bench, Total: "ht_spills_total"},
	{Get: func(c *Counters) *int64 { return &c.HTBloomSkips }, Name: "ht_bloom_skips", Unit: "probes",
		Help: "Join probes answered by the build-side bloom filter.",
		On:   Totals | QueryLog | Tables | Bench, Total: "ht_bloom_skips_total"},
	{Get: func(c *Counters) *int64 { return &c.EmittedRows }, Name: "emitted_rows", Unit: "rows",
		Help: "Rows emitted by pipeline sinks.", On: Totals},
	{Get: func(c *Counters) *int64 { return &c.MorselsVectorized }, Name: "morsels_vec", Unit: "morsels",
		Help: "Morsels served by the vectorized interpreter under hybrid routing.", On: QueryLog},
	{Get: func(c *Counters) *int64 { return &c.MorselsCompiled }, Name: "morsels_jit", Unit: "morsels",
		Help: "Morsels served by compiled code under hybrid routing.", On: QueryLog},
	{Get: func(c *Counters) *int64 { return (*int64)(&c.CompileWait) }, Name: "compile_wait", Unit: "ns",
		Help: "Time spent waiting with no compiled code available.", On: QueryLog},
	{Get: func(c *Counters) *int64 { return (*int64)(&c.CompileTime) }, Name: "compile_time", Unit: "ns",
		Help: "Time spent compiling.", On: Totals | QueryLog, Total: "compile_nanos"},
	{Get: func(c *Counters) *int64 { return &c.CompileErrors }, Name: "compile_errors", Unit: "jobs",
		Help: "Failed compilation jobs.", On: Totals},
	{Get: func(c *Counters) *int64 { return &c.PanicsRecovered }, Name: "panics_recovered", Unit: "panics",
		Help: "Panics converted into per-query errors.", On: Totals},
	{Get: func(c *Counters) *int64 { return &c.MemPeakBytes }, Name: "mem_peak_bytes", Unit: "bytes",
		Help: "Largest per-query memory-budget high-water mark.", Merge: Max, On: Totals},
}

// NameOn is the field's name on surface s: Total for the process totals
// when set, the name without its "ht_" prefix on the "tables:" lines (the
// label already says it), Name everywhere else.
func (f *Field) NameOn(s Surface) string {
	switch {
	case s == Totals && f.Total != "":
		return f.Total
	case s == Tables:
		return strings.TrimPrefix(f.Name, "ht_")
	}
	return f.Name
}

// Add merges o into c.
func (c *Counters) Add(o *Counters) {
	for i := range Fields {
		f := &Fields[i]
		f.merge(f.Get(c), *f.Get(o))
	}
}

// AddSince merges into c what now gained over before: sums add the
// difference, maxima take now's value. The trace uses it to fold one
// morsel's counter delta into a worker's share.
func (c *Counters) AddSince(now, before *Counters) {
	for i := range Fields {
		f := &Fields[i]
		v := *f.Get(now)
		if f.Merge == Sum {
			v -= *f.Get(before)
		}
		f.merge(f.Get(c), v)
	}
}

func (f *Field) merge(dst *int64, v int64) {
	if f.Merge == Max {
		*dst = max(*dst, v)
	} else {
		*dst += v
	}
}

// Line renders the counters surface s claims as space-separated name=value
// pairs, or "" when they are all zero.
func (c *Counters) Line(s Surface) string {
	var b []byte
	nonzero := false
	for i := range Fields {
		f := &Fields[i]
		if f.On&s == 0 {
			continue
		}
		v := *f.Get(c)
		nonzero = nonzero || v != 0
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, f.NameOn(s)...)
		b = append(b, '=')
		b = strconv.AppendInt(b, v, 10)
	}
	if !nonzero {
		return ""
	}
	return string(b)
}

// PerTuple formats a counter normalized by processed tuples.
func (c *Counters) PerTuple(v int64) string {
	if c.Tuples == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(v)/float64(c.Tuples))
}
