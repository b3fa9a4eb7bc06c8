package exec

// Observability tests: the execution trace must agree exactly with the
// engine's stats counters on every backend (they are recorded independently
// — the trace by per-worker counter deltas at morsel granularity, the stats
// by the runners), and a canceled query must still yield a coherent partial
// trace.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/stats"
)

func TestTraceMatchesStatsAllBackends(t *testing.T) {
	tbl := makeTable()
	for _, backend := range allBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			plan := lowerOrDie(t, groupByNode(tbl), "traceq")
			lat := LatencyNone
			res, err := Execute(plan, Options{
				Backend: backend, Workers: 4, MorselSize: 256, Latency: &lat, Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatal("Options.Trace set but Result.Trace is nil")
			}
			if tr.Backend != backend.String() || tr.Workers != 4 {
				t.Fatalf("trace header wrong: %+v", tr)
			}
			if len(tr.Pipelines) != len(plan.Pipelines) {
				t.Fatalf("trace has %d pipelines, plan has %d", len(tr.Pipelines), len(plan.Pipelines))
			}
			// Every scheduled morsel ran, and the trace agrees with itself.
			for _, pt := range tr.Pipelines {
				if pt.MorselsRun() != pt.Morsels {
					t.Fatalf("%s: %d/%d morsels run on a successful query", pt.Name, pt.MorselsRun(), pt.Morsels)
				}
			}
			// The trace's independent accounting equals the stats counters.
			tc := tr.Counters()
			if got, want := tc.Tuples, res.Stats.Tuples; got != want {
				t.Fatalf("trace tuples %d != stats tuples %d", got, want)
			}
			if got, want := tc.MorselsCompiled, res.Stats.MorselsCompiled; got != want {
				t.Fatalf("trace jit %d != stats MorselsCompiled %d", got, want)
			}
			if got, want := tc.MorselsVectorized, res.Stats.MorselsVectorized; got != want {
				t.Fatalf("trace vectorized %d != stats MorselsVectorized %d", got, want)
			}
			if got, want := tc.MorselsCompiled+tc.MorselsVectorized, res.Stats.MorselsCompiled+res.Stats.MorselsVectorized; got != want {
				t.Fatalf("trace routing sum %d != stats routing sum %d", got, want)
			}
			// Every per-morsel counter agrees too; compile accounting and the
			// memory peak are charged per pipeline and per query, not per
			// morsel, so the trace's deltas leave them zero.
			want := perMorsel(res.Stats)
			if tc != want {
				t.Fatalf("trace counters differ from stats:\ntrace %+v\nstats %+v", tc, want)
			}
			// Workers recorded busy time for the work they did.
			for _, pt := range tr.Pipelines {
				if pt.Morsels > 0 && pt.Busy() <= 0 {
					t.Fatalf("%s: ran %d morsels with zero busy time", pt.Name, pt.Morsels)
				}
				if pt.Wall <= 0 {
					t.Fatalf("%s: no pipeline wall recorded", pt.Name)
				}
			}
		})
	}
}

// perMorsel zeroes the counters that are not accumulated per morsel: the
// compile accounting (per pipeline) and the memory peak (per query).
func perMorsel(c stats.Counters) stats.Counters {
	c.CompileWait, c.CompileTime, c.CompileErrors, c.MemPeakBytes = 0, 0, 0, 0
	return c
}

func TestTraceHybridRoutingSeries(t *testing.T) {
	// The first morsel sleeps so the background compiles land before the
	// query runs out of morsels; without it a busy scheduler can start the
	// jobs too late and the run (correctly) stays on the interpreter.
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 1, Delay: 100 * time.Millisecond})
	tbl := makeTable()
	plan := lowerOrDie(t, groupByNode(tbl), "hybridtrace")
	lat := LatencyNone
	res, err := Execute(plan, Options{
		Backend: BackendHybrid, Workers: 2, MorselSize: 128, Latency: &lat, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With zero compile latency the artifact lands almost immediately: the
	// trace must show JIT morsels, EWMA samples, and the artifact timestamp.
	tr := res.Trace
	if tr.Counters().MorselsCompiled == 0 {
		t.Fatal("hybrid trace recorded no JIT-routed morsels")
	}
	var samples int
	for _, pt := range tr.Pipelines {
		for w := range pt.Workers {
			samples += len(pt.Workers[w].EWMA)
		}
	}
	if samples == 0 {
		t.Fatal("hybrid trace recorded no EWMA samples")
	}
	var ready bool
	for _, pt := range tr.Pipelines {
		if pt.ArtifactReady > 0 {
			ready = true
		}
	}
	if !ready {
		t.Fatal("no pipeline recorded an artifact-ready time")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	plan := lowerOrDie(t, groupByNode(makeTable()), "notrace")
	lat := LatencyNone
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("tracing must be opt-in")
	}
}

func TestCanceledQueryPartialTrace(t *testing.T) {
	defer faultinject.Reset()
	// Each morsel sleeps 1ms; the context dies after a few of the ~20
	// morsels, so the query is canceled mid-pipeline.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: time.Millisecond})
	plan := lowerOrDie(t, groupByNode(makeTable()), "cancq")
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	res, err := ExecuteContext(ctx, plan, Options{
		Backend: BackendVectorized, Workers: 2, MorselSize: 256, Latency: &lat, Trace: true,
	})
	if err == nil {
		t.Fatal("query survived its deadline")
	}
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected failure kind: %v", err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("failed query dropped its trace")
	}
	if tr.Err == "" || tr.Wall <= 0 {
		t.Fatalf("partial trace not finalized: err=%q wall=%v", tr.Err, tr.Wall)
	}
	// Coherence: what the trace says ran matches the stats counters, and no
	// pipeline claims more morsels than were scheduled.
	for _, pt := range tr.Pipelines {
		if pt.MorselsRun() > pt.Morsels {
			t.Fatalf("%s: %d morsels run out of %d scheduled", pt.Name, pt.MorselsRun(), pt.Morsels)
		}
	}
	tc := tr.Counters()
	if tc.Tuples != res.Stats.Tuples {
		t.Fatalf("partial trace tuples %d != stats %d", tc.Tuples, res.Stats.Tuples)
	}
	if tc.MorselsCompiled != res.Stats.MorselsCompiled || tc.MorselsVectorized != res.Stats.MorselsVectorized {
		t.Fatalf("partial trace routing (%d/%d) != stats (%d/%d)",
			tc.MorselsCompiled, tc.MorselsVectorized, res.Stats.MorselsCompiled, res.Stats.MorselsVectorized)
	}
	if want := perMorsel(res.Stats); tc != want {
		t.Fatalf("partial trace counters differ from stats:\ntrace %+v\nstats %+v", tc, want)
	}
	// The dump of a partial trace renders without panicking.
	if !strings.Contains(tr.Dump(), "err=") {
		t.Fatal("partial trace dump missing error")
	}
}

func TestExplainAnalyzeAllBackends(t *testing.T) {
	tbl := makeTable()
	for _, backend := range allBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			node := algebra.NewOrderBy(groupByNode(tbl), []string{"sum_b"}, []bool{true}, 0)
			plan := lowerOrDie(t, node, "explainq")
			lat := LatencyNone
			out, res, err := ExplainAnalyze(context.Background(), plan, Options{
				Backend: backend, Workers: 2, MorselSize: 512, Latency: &lat,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("ExplainAnalyze did not enable tracing")
			}
			for _, want := range []string{
				"== explain analyze explainq",
				"backend=" + backend.String(),
				"pipeline ",
				"morsels",
				"== totals: tuples=",
				"post: order by",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("explain output missing %q:\n%s", want, out)
				}
			}
			// Backends that compile report compile time in the annotations.
			if backend == BackendCompiling || backend == BackendROF {
				if !strings.Contains(out, "-- compile:") {
					t.Errorf("compiling backend output missing compile annotation:\n%s", out)
				}
			}
		})
	}
}

func TestExplainAnalyzeDegradedHybrid(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{Err: errors.New("injected compile failure")})
	// The background compile races the (tiny) query: when the query finishes
	// before the job is scheduled, abandon() cancels it and the run reports
	// no degradation — correctly, since nothing failed. The fault fires on
	// every passage, so retry until the injected failure lands.
	for attempt := 0; attempt < 50; attempt++ {
		plan := lowerOrDie(t, groupByNode(makeTable()), "degradedq")
		lat := LatencyNone
		out, res, err := ExplainAnalyze(context.Background(), plan, Options{
			Backend: BackendHybrid, Workers: 2, Latency: &lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Warnings) == 0 {
			continue
		}
		if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "== warning:") {
			t.Fatalf("explain output hides the degradation:\n%s", out)
		}
		return
	}
	t.Fatal("injected compile failure never surfaced as a degradation warning")
}
