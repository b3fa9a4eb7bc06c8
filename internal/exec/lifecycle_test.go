package exec

// Lifecycle-robustness tests: deterministic fault injection proving that a
// failing query — panic, deadline, cancellation, memory budget, background
// compile failure — is contained to that query while the process and
// subsequent queries keep working.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

// groupByNode builds a GROUP BY plan over the shared test table.
func groupByNode(tbl *storage.Table) algebra.Node {
	return algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"},
		algebra.Sum("b", "sum_b"), algebra.Count("n"))
}

func lowerOrDie(t *testing.T, node algebra.Node, name string) *core.Plan {
	t.Helper()
	plan, err := algebra.Lower(node, name)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPanicIsolatedPerQueryAllBackends(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable()
	for _, backend := range []Backend{BackendVectorized, BackendCompiling, BackendROF, BackendHybrid} {
		t.Run(backend.String(), func(t *testing.T) {
			faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Panic: "injected primitive panic"})
			lat := LatencyNone
			plan := lowerOrDie(t, groupByNode(tbl), "panicq")
			res, err := Execute(plan, Options{Backend: backend, Workers: 2, Latency: &lat})
			if err == nil {
				t.Fatal("panicking query returned no error")
			}
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("error is %T, want *QueryError: %v", err, err)
			}
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("error does not wrap ErrPanic: %v", err)
			}
			if qe.Backend != backend || qe.Morsel < 0 || qe.Stack == "" {
				t.Fatalf("bad failure location: %+v", qe)
			}
			if res == nil || res.Stats.PanicsRecovered < 1 {
				t.Fatalf("recovery not counted: %+v", res)
			}

			// The process survives: the same query re-runs cleanly once the
			// fault is disarmed.
			faultinject.Reset()
			plan2 := lowerOrDie(t, groupByNode(tbl), "panicq2")
			res2, err := Execute(plan2, Options{Backend: backend, Workers: 2, Latency: &lat})
			if err != nil {
				t.Fatalf("follow-up query failed: %v", err)
			}
			if res2.Rows() == 0 || res2.Stats.PanicsRecovered != 0 {
				t.Fatalf("follow-up query degraded: rows=%d stats=%+v", res2.Rows(), res2.Stats)
			}
		})
	}
}

func TestPanicDoesNotPoisonConcurrentQueries(t *testing.T) {
	defer faultinject.Reset()
	// Nth=4: a few morsels succeed first, then one worker panics while the
	// other queries keep running in the same process.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 4, Panic: "late panic"})
	tbl := makeTable()
	lat := LatencyNone

	type out struct {
		res *Result
		err error
	}
	outs := make(chan out, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			plan, err := algebra.Lower(groupByNode(tbl), fmt.Sprintf("conc%d", i))
			if err != nil {
				outs <- out{nil, err}
				return
			}
			res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
			outs <- out{res, err}
		}(i)
	}
	var failures, successes int
	for i := 0; i < 3; i++ {
		o := <-outs
		if o.err != nil {
			if !errors.Is(o.err, ErrPanic) {
				t.Fatalf("unexpected failure kind: %v", o.err)
			}
			failures++
		} else {
			if o.res.Rows() == 0 {
				t.Fatal("successful query returned no rows")
			}
			successes++
		}
	}
	// Exactly one passage is the 4th: one query dies, the rest complete.
	if failures != 1 || successes != 2 {
		t.Fatalf("failures=%d successes=%d, want 1/2", failures, successes)
	}
}

func TestCancellationStopsQuery(t *testing.T) {
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first morsel
	plan := lowerOrDie(t, groupByNode(tbl), "cancelq")
	_, err := ExecuteContext(ctx, plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context cause lost: %v", err)
	}
}

func TestDeadlineStopsMidScan(t *testing.T) {
	defer faultinject.Reset()
	// Each morsel passage sleeps 5ms, the deadline is 15ms, and the scan has
	// ~79 morsels: the deadline must fire after a handful of morsels and the
	// workers must drain within one morsel batch instead of finishing the
	// scan.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 5 * time.Millisecond})
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	plan := lowerOrDie(t, groupByNode(tbl), "deadlineq")
	res, err := ExecuteContext(ctx, plan, Options{
		Backend: BackendVectorized, Workers: 2, Latency: &lat, MorselSize: 64,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if res.Stats.Tuples >= int64(tbl.Rows()) {
		t.Fatalf("deadline did not stop the scan: %d tuples processed", res.Stats.Tuples)
	}
}

func TestDeadlineInterruptsCompileWait(t *testing.T) {
	defer faultinject.Reset()
	// The compiling backend's simulated machine-code latency must observe
	// the context instead of sleeping through it.
	faultinject.Arm(faultinject.ExecCompileDelay, faultinject.Fault{Delay: time.Second})
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	plan := lowerOrDie(t, groupByNode(tbl), "compilewait")
	start := time.Now()
	_, err := ExecuteContext(ctx, plan, Options{Backend: BackendCompiling, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("compile wait ignored the deadline: took %v", el)
	}
}

func TestForegroundCompileFaultFailsQuery(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecCompile, faultinject.Fault{})
	tbl := makeTable()
	lat := LatencyNone
	for _, backend := range []Backend{BackendCompiling, BackendROF} {
		plan := lowerOrDie(t, groupByNode(tbl), "compilefail")
		_, err := Execute(plan, Options{Backend: backend, Workers: 2, Latency: &lat})
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%v: want injected compile error, got %v", backend, err)
		}
	}
}

func TestMemoryBudgetFailsOversizedGroupBy(t *testing.T) {
	// ~50k distinct keys cannot fit a 32 KiB runtime-state budget: the query
	// must fail with the typed budget error instead of OOM-ing the process.
	tbl := storage.NewTable("wide", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Float64},
	})
	for i := 0; i < 50000; i++ {
		tbl.AppendRow(int64(i), 1.0)
	}
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "k", "v"), []string{"k"}, algebra.Sum("v", "s"))
	lat := LatencyNone
	plan := lowerOrDie(t, node, "bigagg")
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 32 << 10})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("budget failure not located: %T %v", err, err)
	}
	if res.Stats.MemPeakBytes == 0 {
		t.Fatal("budget accounting reported no peak")
	}

	// Under budget, the same query completes and reports its footprint.
	plan2 := lowerOrDie(t, node, "bigagg2")
	res2, err := Execute(plan2, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatalf("generous budget still failed: %v", err)
	}
	if res2.Rows() != 50000 || res2.Stats.MemPeakBytes == 0 {
		t.Fatalf("rows=%d peak=%d", res2.Rows(), res2.Stats.MemPeakBytes)
	}
}

func TestMemoryBudgetCoversJoinBuild(t *testing.T) {
	tbl := makeTable()
	big := storage.NewTable("bigdim", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "w", Kind: types.Float64},
	})
	for i := 0; i < 50000; i++ {
		big.AppendRow(int64(i%97), float64(i))
	}
	join := &algebra.HashJoin{
		Build:     algebra.NewScan(big, "k", "w"),
		Probe:     algebra.NewScan(tbl, "a", "b"),
		BuildKeys: []string{"k"},
		ProbeKeys: []string{"a"},
		BuildCols: []string{"w"},
	}
	node := algebra.NewGroupBy(join, nil, algebra.Sum("w", "s"))
	lat := LatencyNone
	plan := lowerOrDie(t, node, "bigjoin")
	_, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 32 << 10})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
}

func TestHybridDegradesOnBackgroundCompileFailure(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{})
	tbl := makeTable()
	lat := LatencyNone
	plan := lowerOrDie(t, groupByNode(tbl), "degraded")
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatalf("degraded hybrid query failed outright: %v", err)
	}
	if res.Stats.CompileErrors == 0 {
		t.Fatalf("compile failures not counted: %+v", res.Stats)
	}
	if res.Stats.MorselsCompiled != 0 {
		t.Fatalf("morsels ran on supposedly failed compiled code: %+v", res.Stats)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("degradation not surfaced in Result.Warnings")
	}

	// Correctness under degradation: same rows as the pure vectorized run.
	faultinject.Reset()
	plan2 := lowerOrDie(t, groupByNode(tbl), "reference")
	ref, err := Execute(plan2, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	got, want := rowsAsStrings(res.Chunk), rowsAsStrings(ref.Chunk)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("rows: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestHybridCompileDelayIsAbandoned(t *testing.T) {
	// The hybrid background job runs the foreground compile step, so the
	// compile-delay point slows it too: the query must finish on the
	// interpreter, cancel the wait, and deposit no artifact.
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecCompileDelay, faultinject.Fault{Delay: time.Second})
	tbl := makeTable()
	lat := LatencyNone
	arts := NewArtifactSet()
	plan := lowerOrDie(t, groupByNode(tbl), "delayed")
	start := time.Now()
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat, Artifacts: arts})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("hybrid waited for the delayed compile: took %v", el)
	}
	if faultinject.Calls(faultinject.ExecCompileDelay) == 0 {
		t.Fatal("background compile never reached the compile-delay point")
	}
	if n := arts.FusedPipelines(); n != 0 || arts.Compiles() != 0 {
		t.Fatalf("abandoned compile stored artifacts: %d pipelines, %d compiles", n, arts.Compiles())
	}
	if res.Stats.MorselsCompiled != 0 || res.Stats.CompileErrors != 0 || len(res.Warnings) != 0 {
		t.Fatalf("abandoned compile is not a failure: %+v, warnings %v", res.Stats, res.Warnings)
	}
	for _, ev := range flight.Default.Recent(0, res.QueryID) {
		if ev.Query == res.QueryID && ev.Kind == flight.KindCompileFail {
			t.Fatalf("abandoned compile recorded as a failure: %v", ev)
		}
	}
}

func TestHybridDegradesOnCompileFault(t *testing.T) {
	// An ExecCompile fault fails the hybrid background job, not the query:
	// the pipeline degrades to the interpreter with a warning. The first
	// morsel sleeps so the job reaches the fault before the pipeline ends.
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecCompile, faultinject.Fault{})
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 1, Delay: 200 * time.Millisecond})
	tbl := makeTable()
	lat := LatencyNone
	node := algebra.NewFilter(algebra.NewScan(tbl, "a", "b"), algebra.Lt(algebra.Col("a"), algebra.I64(10)))
	plan := lowerOrDie(t, node, "compilefault")
	if len(plan.Pipelines) != 1 {
		t.Fatalf("want a one-pipeline plan, got %d", len(plan.Pipelines))
	}
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatalf("compile fault failed the hybrid query: %v", err)
	}
	if res.Stats.CompileErrors != 1 || len(res.Warnings) != 1 {
		t.Fatalf("want one compile error and one warning, got %d and %v", res.Stats.CompileErrors, res.Warnings)
	}
	if !errors.Is(res.Warnings[0], faultinject.ErrInjected) {
		t.Fatalf("warning does not carry the injected fault: %v", res.Warnings[0])
	}
	if res.Stats.MorselsCompiled != 0 || res.Rows() == 0 {
		t.Fatalf("degraded run: %d compiled morsels, %d rows", res.Stats.MorselsCompiled, res.Rows())
	}
}

func TestHybridDegradationOnTPCH(t *testing.T) {
	// Acceptance shape: a forced background-compile failure on the hybrid
	// backend still returns correct TPC-H results with CompileErrors > 0.
	defer faultinject.Reset()
	cat := tpch.Generate(0.01, 42)
	node, err := tpch.Build(cat, "q1")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyNone
	refPlan := lowerOrDie(t, node, "q1ref")
	ref, err := Execute(refPlan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{})
	node2, _ := tpch.Build(cat, "q1")
	plan := lowerOrDie(t, node2, "q1degraded")
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatalf("degraded q1 failed: %v", err)
	}
	if res.Stats.CompileErrors == 0 {
		t.Fatal("CompileErrors not recorded")
	}
	got, want := rowsAsStrings(res.Chunk), rowsAsStrings(ref.Chunk)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("rows: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func TestFinalizeFaultIsIsolated(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecFinalize, faultinject.Fault{Panic: "seal failure"})
	tbl := makeTable()
	lat := LatencyNone
	plan := lowerOrDie(t, groupByNode(tbl), "finalize")
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("want ErrPanic from finalization, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Morsel != -1 {
		t.Fatalf("finalization failure mislocated: %v", err)
	}
	if res.Stats.PanicsRecovered == 0 {
		t.Fatal("finalization recovery not counted")
	}
}
