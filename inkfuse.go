// Package inkfuse is a Go implementation of Incremental Fusion — the query
// execution paradigm of Wagner et al., "Incremental Fusion: Unifying
// Compiled and Vectorized Query Execution" (ICDE 2024) — modeled on the
// paper's open-source prototype engine InkFuse.
//
// The engine lowers relational plans into a suboperator IR whose
// instantiations are finite (the enumeration invariant). One compilation
// stack serves two purposes: fusing whole pipelines into specialized
// programs (the compiling backend), and generating — ahead of time, from the
// enumerated suboperators — a complete vectorized interpreter (the
// vectorized backend). A hybrid backend starts queries on the interpreter,
// compiles in the background, and routes morsels to whichever backend
// measures the highest tuple throughput; an ROF backend stages pipelines
// before hash-table probes with a prefetch step.
//
// Quick start:
//
//	cat := inkfuse.NewCatalog()
//	cat.Add(myTable)
//	plan := inkfuse.NewGroupBy(inkfuse.NewScan(myTable, "k", "v"),
//	    []string{"k"}, inkfuse.Sum("v", "total"))
//	res, err := inkfuse.Run(plan, "totals", inkfuse.Options{Backend: inkfuse.BackendHybrid})
package inkfuse

import (
	"context"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/interp"
	"inkfuse/internal/ir"
	"inkfuse/internal/obs"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/volcano"
)

// Run lowers a relational plan into suboperator pipelines and executes it.
func Run(node Node, name string, opts Options) (*Result, error) {
	return RunContext(context.Background(), node, name, opts)
}

// RunContext is Run under a context: cancellation and deadlines stop the
// query at morsel granularity and the returned error wraps ErrCanceled or
// ErrDeadlineExceeded. Combine with Options.MemoryBudget for fully bounded
// queries:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := inkfuse.RunContext(ctx, plan, "q", inkfuse.Options{
//	    Backend:      inkfuse.BackendHybrid,
//	    MemoryBudget: 256 << 20, // fail (not OOM) past 256 MiB of query state
//	})
func RunContext(ctx context.Context, node Node, name string, opts Options) (*Result, error) {
	plan, err := algebra.Lower(node, name)
	if err != nil {
		return nil, err
	}
	return exec.ExecuteContext(ctx, plan, opts)
}

// Lower exposes the plan lowering step (relational algebra → suboperator
// pipelines) for callers that want to inspect or re-execute plans.
func Lower(node Node, name string) (*Plan, error) {
	return algebra.Lower(node, name)
}

// Execute runs an already-lowered plan. Note that a lowered plan owns its
// runtime state (hash tables); re-executing the same *Plan is not supported —
// lower again instead.
func Execute(plan *Plan, opts Options) (*Result, error) {
	return exec.Execute(plan, opts)
}

// ExecuteContext is Execute under a context (see RunContext).
func ExecuteContext(ctx context.Context, plan *Plan, opts Options) (*Result, error) {
	return exec.ExecuteContext(ctx, plan, opts)
}

// RunVolcano executes the plan on the tuple-at-a-time Volcano reference
// engine (baseline and correctness oracle).
func RunVolcano(node Node) (*Chunk, error) {
	return volcano.Run(node)
}

// GenerateTPCH builds the TPC-H-style benchmark catalog at a scale factor
// (SF 1 ≈ 6M lineitem rows). Deterministic in (sf, seed).
func GenerateTPCH(sf float64, seed uint64) *Catalog {
	return tpch.Generate(sf, seed)
}

// TPCHQuery returns the plan for one of the supported TPC-H queries (the
// paper's eight — "q1", "q3", "q4", "q5", "q6", "q13", "q14", "q19" — plus
// the extended "q10" and "q12"): its SQL text (TPCHSQL) compiled through the
// text frontend.
func TPCHQuery(cat *Catalog, name string) (Node, error) {
	return tpch.Build(cat, name)
}

// TPCHQueries lists the supported query names.
func TPCHQueries() []string {
	return append([]string{}, tpch.Queries...)
}

// TPCHSQL returns the SQL text of one of the supported TPC-H queries — the
// single definition TPCHQuery compiles.
func TPCHSQL(name string) (string, bool) {
	text, ok := tpch.SQL[name]
	return text, ok
}

// CompileSQL parses and binds a SELECT statement against a catalog. The
// returned statement carries the relational tree, the output column names,
// and the parameter-invariant fingerprint under which repeated executions of
// the same query shape share cached plans. Literals are auto-parameterized;
// explicit ? placeholders are filled positionally at execution time.
// Failures are *SQLParseError or *SQLBindError, both carrying a source
// Position (see SQLErrorPosition).
func CompileSQL(cat *Catalog, text string) (*SQLStatement, error) {
	return sql.Compile(cat, text)
}

// RunSQL compiles and executes a SQL SELECT in one call:
//
//	res, err := inkfuse.RunSQL(cat,
//	    "select count(*) as n from lineitem where l_quantity < ?",
//	    []any{24.0}, inkfuse.Options{Backend: inkfuse.BackendHybrid})
//
// params fills the statement's ? placeholders in text order (nil when the
// text has none). Callers that execute a shape repeatedly should keep the
// CompileSQL statement and a plancache instead.
func RunSQL(cat *Catalog, text string, params []any, opts Options) (*Result, error) {
	stmt, err := sql.Compile(cat, text)
	if err != nil {
		return nil, err
	}
	plan, pm, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
	if err != nil {
		return nil, err
	}
	if err := stmt.BindArgs(pm, params); err != nil {
		return nil, err
	}
	return exec.Execute(plan, opts)
}

// GeneratedC renders the C source the engine's compilation stack generates
// for every pipeline of the plan — the code an InkFuse-style engine hands to
// clang (paper Figs 3, 5, 6). The source begins with the runtime prelude, so
// it compiles as one translation unit.
func GeneratedC(node Node, name string) (string, error) {
	plan, err := algebra.Lower(node, name)
	if err != nil {
		return "", err
	}
	out := ir.EmitCPrelude() + "\n"
	for _, pipe := range plan.Pipelines {
		fn, _, err := pipe.GenFused()
		if err != nil {
			return "", err
		}
		out += ir.EmitC(fn) + "\n"
	}
	return out, nil
}

// Explain lowers a plan and renders its suboperator pipelines (paper Fig 7
// style): per pipeline the source, the suboperator DAG with the primitive
// each suboperator resolves to, and the sink.
func Explain(node Node, name string) (string, error) {
	plan, err := algebra.Lower(node, name)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}

// ExplainAnalyze lowers and EXECUTES the plan with tracing enabled, then
// renders the suboperator pipelines annotated with the measured execution
// numbers: morsel counts, per-worker busy-time distribution, compile timing,
// the hybrid backend's routing split and EWMA throughput estimates, and
// finalization time. Works on every backend. The executed Result (with
// Result.Trace attached) is returned alongside the rendering; on failure the
// rendering covers the partial trace and the error is returned too.
func ExplainAnalyze(node Node, name string, opts Options) (string, *Result, error) {
	return ExplainAnalyzeContext(context.Background(), node, name, opts)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context (see RunContext).
func ExplainAnalyzeContext(ctx context.Context, node Node, name string, opts Options) (string, *Result, error) {
	plan, err := algebra.Lower(node, name)
	if err != nil {
		return "", nil, err
	}
	return exec.ExplainAnalyze(ctx, plan, opts)
}

// MetricsText renders the engine-wide registry's flat values (queries
// started / succeeded / failed / canceled, tuples, panics recovered, compile
// errors, memory peaks, ...) as "name value" lines. The same values are
// exported via expvar under the key "inkfuse" for any HTTP server that
// mounts /debug/vars. They are fed once per query at query end — they cost
// the hot path nothing.
func MetricsText() string {
	return obs.Default.Dump()
}

// PrometheusText renders the engine's observability state — the flat metrics
// registry plus the latency/throughput histogram families (per-backend query
// latency, morsel latency, rows/sec) — in the Prometheus text exposition
// format. cmd/inkserve serves this at /metrics; embedders can mount it on
// their own handler:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
//	    io.WriteString(w, inkfuse.PrometheusText())
//	})
func PrometheusText() string {
	return obs.Default.PrometheusText()
}

// PrimitiveCount reports how many vectorized primitives the engine generates
// at startup from the suboperator enumeration (paper §V-A reports 800+ for
// InkFuse's 20 suboperators; EXPERIMENTS.md records ours).
func PrimitiveCount() (int, error) {
	reg, err := interp.Default()
	if err != nil {
		return 0, err
	}
	return reg.Len(), nil
}

// SubOperatorCount reports the number of distinct suboperator families in
// the enumeration.
func SubOperatorCount() int {
	seen := map[string]bool{}
	for _, op := range core.Enumerate() {
		seen[opFamily(op.PrimitiveID())] = true
	}
	return len(seen)
}

func opFamily(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '_' {
			return id[:i]
		}
	}
	return id
}

// Morsels re-exports the morsel splitter for custom schedulers.
func Morsels(rows, size int) []storage.Morsel { return storage.Morsels(rows, size) }
