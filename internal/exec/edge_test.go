package exec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
	"inkfuse/internal/volcano"
)

func allBackends() []Backend {
	return []Backend{BackendVectorized, BackendCompiling, BackendROF, BackendHybrid}
}

func execPlan(t *testing.T, node algebra.Node, backend Backend, opts Options) *Result {
	t.Helper()
	plan, err := algebra.Lower(node, "edge")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Latency == nil {
		lat := LatencyNone
		opts.Latency = &lat
	}
	opts.Backend = backend
	res, err := Execute(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEmptyTable(t *testing.T) {
	empty := storage.NewTable("e", types.Schema{
		{Name: "a", Kind: types.Int64},
		{Name: "s", Kind: types.String},
	})
	// Scan-filter over empty data.
	node := algebra.NewProject(algebra.NewFilter(
		algebra.NewScan(empty, "a"), algebra.Gt(algebra.Col("a"), algebra.I64(0))), "a")
	for _, b := range allBackends() {
		if res := execPlan(t, node, b, Options{}); res.Rows() != 0 {
			t.Fatalf("%v: %d rows from empty table", b, res.Rows())
		}
	}
	// Keyed aggregation over empty data: zero groups.
	agg := algebra.NewGroupBy(algebra.NewScan(empty, "s", "a"), []string{"s"}, algebra.Count("n"))
	for _, b := range allBackends() {
		if res := execPlan(t, agg, b, Options{}); res.Rows() != 0 {
			t.Fatalf("%v: keyed agg over empty gave %d rows", b, res.Rows())
		}
	}
	// Keyless aggregation over empty data: exactly one row of zeros.
	static := algebra.NewGroupBy(algebra.NewScan(empty, "a"), nil, algebra.Count("n"))
	for _, b := range allBackends() {
		res := execPlan(t, static, b, Options{})
		if res.Rows() != 1 || res.Chunk.Row(0)[0] != int64(0) {
			t.Fatalf("%v: keyless agg over empty: rows=%d", b, res.Rows())
		}
	}
}

func TestSingleRow(t *testing.T) {
	tbl := storage.NewTable("one", types.Schema{{Name: "a", Kind: types.Int64}})
	tbl.AppendRow(int64(41))
	node := algebra.NewProject(algebra.NewMap(algebra.NewScan(tbl, "a"),
		algebra.NamedExpr{As: "b", E: algebra.Add(algebra.Col("a"), algebra.I64(1))}), "b")
	for _, b := range allBackends() {
		res := execPlan(t, node, b, Options{})
		if res.Rows() != 1 || res.Chunk.Row(0)[0] != int64(42) {
			t.Fatalf("%v: got %v", b, res.Chunk.Row(0))
		}
	}
}

func TestAllRowsFiltered(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewProject(algebra.NewFilter(algebra.NewScan(tbl, "a"),
		algebra.Gt(algebra.Col("a"), algebra.I64(1_000_000))), "a")
	for _, b := range allBackends() {
		if res := execPlan(t, node, b, Options{}); res.Rows() != 0 {
			t.Fatalf("%v: %d rows survived an always-false filter", b, res.Rows())
		}
	}
}

func TestExplodingJoinGrowth(t *testing.T) {
	// Build side has 500 duplicates of one key; a small probe explodes to
	// 500x its cardinality, exercising the growing tuple-buffer sink.
	build := storage.NewTable("b", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	})
	for i := 0; i < 500; i++ {
		build.AppendRow(int64(7), int64(i))
	}
	probe := storage.NewTable("p", types.Schema{{Name: "k", Kind: types.Int64}})
	for i := 0; i < 10; i++ {
		probe.AppendRow(int64(7))
	}
	join := &algebra.HashJoin{
		Build: algebra.NewScan(build, "k", "v"), Probe: algebra.NewScan(probe, "k"),
		BuildKeys: []string{"k"}, ProbeKeys: []string{"k"},
		BuildCols: []string{"v"}, Mode: ir.InnerJoin,
	}
	node := algebra.NewGroupBy(join, nil, algebra.Count("n"))
	for _, b := range allBackends() {
		res := execPlan(t, node, b, Options{ChunkSize: 16}) // tiny chunks force growth
		if res.Chunk.Row(0)[0] != int64(5000) {
			t.Fatalf("%v: exploded to %v rows, want 5000", b, res.Chunk.Row(0)[0])
		}
	}
}

func TestTinyChunkAndMorselSizes(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"},
		algebra.Sum("b", "total"))
	want, err := volcano.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends() {
		for _, size := range []struct{ chunk, morsel int }{{1, 1}, {3, 7}, {1024, 100}} {
			res := execPlan(t, node, b, Options{ChunkSize: size.chunk, MorselSize: size.morsel, Workers: 3})
			if res.Rows() != want.Rows() {
				t.Fatalf("%v chunk=%d morsel=%d: rows %d vs %d", b, size.chunk, size.morsel, res.Rows(), want.Rows())
			}
		}
	}
}

func TestMoreWorkersThanMorsels(t *testing.T) {
	tbl := storage.NewTable("few", types.Schema{{Name: "a", Kind: types.Int64}})
	for i := 0; i < 10; i++ {
		tbl.AppendRow(int64(i))
	}
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "a"), nil, algebra.Sum("a", "s"))
	for _, b := range allBackends() {
		res := execPlan(t, node, b, Options{Workers: 16})
		if res.Chunk.Row(0)[0] != int64(45) {
			t.Fatalf("%v: sum = %v", b, res.Chunk.Row(0)[0])
		}
	}
}

func TestHybridCompilationInterrupted(t *testing.T) {
	// A compile latency far longer than the query: the hybrid backend must
	// finish on the interpreter and cancel the background compile promptly.
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"},
		algebra.Sum("b", "total"))
	plan, err := algebra.Lower(node, "interrupt")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyModel{Base: 10 * time.Second}
	start := time.Now()
	res, err := Execute(plan, Options{Backend: BackendHybrid, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hybrid blocked on abandoned compile: %v", el)
	}
	if res.Stats.MorselsCompiled != 0 {
		t.Fatal("no morsel should have used never-ready code")
	}
	if res.Rows() != 3 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestCompileWaitAccounting(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"}, algebra.Sum("b", "t"))
	plan, err := algebra.Lower(node, "wait")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyModel{Base: 30 * time.Millisecond}
	res, err := Execute(plan, Options{Backend: BackendCompiling, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	// Two pipelines, each paying >= 30ms.
	if res.Stats.CompileWait < 60*time.Millisecond {
		t.Fatalf("compile wait %v, want >= 60ms", res.Stats.CompileWait)
	}
	if res.Wall < res.Stats.CompileWait {
		t.Fatal("wall time excludes compile wait")
	}

	// The vectorized backend never waits.
	plan2, _ := algebra.Lower(node, "wait2")
	res2, err := Execute(plan2, Options{Backend: BackendVectorized, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CompileWait != 0 {
		t.Fatal("vectorized backend reported compile wait")
	}
}

func TestHybridRoutesToFasterBackend(t *testing.T) {
	// With zero compile latency and plenty of morsels, the hybrid backend
	// must route morsels to both backends (exploration) once the code is
	// ready. Give the background compiler its own P so the test checks the
	// routing policy rather than single-CPU scheduler luck.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	big := storage.NewTable("big", types.Schema{
		{Name: "s", Kind: types.String},
		{Name: "b", Kind: types.Float64},
	})
	labels := []string{"x", "y", "z"}
	big.SetRows(300_000)
	for i := 0; i < big.Rows(); i++ {
		big.Col("s").Str[i] = labels[i%3]
		big.Col("b").F64[i] = float64(i % 100)
	}
	node := algebra.NewGroupBy(algebra.NewScan(big, "s", "b"), []string{"s"}, algebra.Sum("b", "t"))
	res := execPlan(t, node, BackendHybrid, Options{MorselSize: 512})
	s := res.Stats
	if s.MorselsCompiled == 0 || s.MorselsVectorized == 0 {
		t.Fatalf("hybrid did not explore both: jit=%d vec=%d", s.MorselsCompiled, s.MorselsVectorized)
	}
}

func TestStatsPlausibility(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewFilter(algebra.NewScan(tbl, "a", "b", "s"),
		algebra.Gt(algebra.Col("a"), algebra.I64(50))), []string{"s"}, algebra.Sum("b", "t"))

	vec := execPlan(t, node, BackendVectorized, Options{})
	jit := execPlan(t, node, BackendCompiling, Options{})
	if vec.Stats.PrimitiveCalls == 0 || jit.Stats.PrimitiveCalls != 0 {
		t.Fatalf("primitive call accounting: vec=%d jit=%d", vec.Stats.PrimitiveCalls, jit.Stats.PrimitiveCalls)
	}
	if jit.Stats.FusedCalls == 0 || vec.Stats.FusedCalls != 0 {
		t.Fatalf("fused call accounting: vec=%d jit=%d", vec.Stats.FusedCalls, jit.Stats.FusedCalls)
	}
	// The vectorized interpreter materializes between suboperators: its
	// buffer traffic must exceed the fused program's (Table I's core claim).
	if vec.Stats.MaterializedBytes <= jit.Stats.MaterializedBytes {
		t.Fatalf("materialization: vec=%d jit=%d", vec.Stats.MaterializedBytes, jit.Stats.MaterializedBytes)
	}
	// Both backends see the same tuples: the 5000 scanned rows plus the
	// aggregate groups read by the second pipeline.
	if vec.Stats.Tuples != jit.Stats.Tuples || vec.Stats.Tuples < 5000 {
		t.Fatalf("tuple accounting: vec=%d jit=%d", vec.Stats.Tuples, jit.Stats.Tuples)
	}
}

func TestHybridCompilesAllPipelinesUpFront(t *testing.T) {
	// Paper §V-B: background compilation starts for every pipeline when the
	// query enters the system — a later pipeline's code must become ready
	// without that pipeline having started.
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"}, algebra.Sum("b", "t"))
	plan, err := algebra.Lower(node, "upfront")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyNone
	bgs := startHybridCompiles(context.Background(), 0, plan.Pipelines, lat, nil)
	defer func() {
		for _, h := range bgs {
			h.abandon()
		}
	}()
	if len(bgs) != 2 {
		t.Fatalf("jobs = %d", len(bgs))
	}
	for i, h := range bgs {
		<-h.done
		if h.art.Load() == nil {
			t.Fatalf("pipeline %d code never became ready", i)
		}
	}
}

func TestCaseInsensitiveGroupBy(t *testing.T) {
	// Paper §IV-D collations: ABCD and abCD group together; the displayed
	// key is an original from the group, not the normalized representative.
	tbl := storage.NewTable("ci", types.Schema{
		{Name: "s", Kind: types.String},
		{Name: "v", Kind: types.Float64},
	})
	variants := []string{"ABCD", "abCD", "abcd", "AbCd"}
	for i := 0; i < 4000; i++ {
		tbl.AppendRow(variants[i%4], 1.0)
	}
	tbl.AppendRow("other", 5.0)
	node := &algebra.GroupBy{
		In:     algebra.NewScan(tbl, "s", "v"),
		Keys:   []string{"s"},
		Aggs:   []algebra.AggSpec{algebra.Sum("v", "total"), algebra.Count("n")},
		NoCase: []string{"s"},
	}
	want, err := volcano.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows() != 2 {
		t.Fatalf("oracle groups = %d, want 2", want.Rows())
	}
	for _, backend := range allBackends() {
		res := execPlan(t, node, backend, Options{Workers: 2})
		if res.Rows() != 2 {
			t.Fatalf("%v: groups = %d, want 2", backend, res.Rows())
		}
		for i := 0; i < res.Rows(); i++ {
			row := res.Chunk.Row(i)
			s := row[0].(string)
			switch strings.ToLower(s) {
			case "abcd":
				// The representative must be one of the originals, never the
				// normalized form unless it occurred in the data.
				if !contains(variants, s) {
					t.Fatalf("%v: representative %q is not an original", backend, s)
				}
				if row[1] != 4000.0 || row[2] != int64(4000) {
					t.Fatalf("%v: abcd group: %v", backend, row)
				}
			case "other":
				if row[1] != 5.0 || row[2] != int64(1) {
					t.Fatalf("%v: other group: %v", backend, row)
				}
			default:
				t.Fatalf("%v: unexpected group %q", backend, s)
			}
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func TestAntiJoin(t *testing.T) {
	tbl := makeTable()
	dim := storage.NewTable("dimA", types.Schema{{Name: "k", Kind: types.Int64}})
	for i := 0; i < 30; i += 2 {
		dim.AppendRow(int64(i))
	}
	anti := &algebra.HashJoin{
		Build: algebra.NewScan(dim, "k"), Probe: algebra.NewScan(tbl, "a", "b"),
		BuildKeys: []string{"k"}, ProbeKeys: []string{"a"},
		Mode: ir.AntiJoin,
	}
	node := algebra.NewGroupBy(anti, nil, algebra.Sum("b", "s"), algebra.Count("n"))
	checkAgainstVolcano(t, node, "anti")
}

func TestDistinct(t *testing.T) {
	tbl := makeTable()
	// DISTINCT s, a%... : GroupBy with keys and no aggregates.
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "a"), []string{"s", "a"})
	checkAgainstVolcano(t, node, "distinct")
}

func TestDateMinMaxAggregates(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "s", "d"), []string{"s"},
		algebra.MinOf("d", "first"), algebra.MaxOf("d", "last"))
	checkAgainstVolcano(t, node, "dateminmax")
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{
		"vectorized": BackendVectorized, "interpreted": BackendVectorized,
		"compiling": BackendCompiling, "jit": BackendCompiling,
		"rof": BackendROF, "hybrid": BackendHybrid, "adaptive": BackendHybrid,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBackend("nonsense"); err == nil {
		t.Fatal("expected error")
	}
	if BackendROF.String() != "rof" || Backend(99).String() == "" {
		t.Fatal("backend names")
	}
}

func TestSourceBindingErrors(t *testing.T) {
	// An aggregate-read pipeline scheduled before its build finalized is a
	// plan bug the scheduler must surface, not a crash.
	agg := &rt.AggTableState{}
	pipe := &core.Pipeline{Name: "bad", Source: &core.AggRead{State: agg, Out: core.NewIU(types.Ptr, "g")}}
	if _, err := bindSource(pipe); err == nil {
		t.Fatal("expected error for unfinalized aggregate source")
	}
}

func TestUnknownBackend(t *testing.T) {
	tbl := makeTable()
	plan, err := algebra.Lower(algebra.NewProject(algebra.NewScan(tbl, "a"), "a"), "x")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyNone
	if _, err := Execute(plan, Options{Backend: Backend(42), Latency: &lat}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

func TestLatencyModel(t *testing.T) {
	if !LatencyNone.Zero() || LatencyC.Zero() {
		t.Fatal("Zero() wrong")
	}
	f := &struct{}{}
	_ = f
	small := LatencyModel{Base: time.Millisecond, PerNode: time.Microsecond}
	node := algebra.NewScan(makeTable(), "a")
	plan, _ := algebra.Lower(algebra.NewProject(node, "a"), "lat")
	fn, _, err := plan.Pipelines[0].GenFused()
	if err != nil {
		t.Fatal(err)
	}
	if small.Delay(fn) <= small.Base {
		t.Fatal("delay must scale with code size")
	}
}

func TestResultDeterministicWithSort(t *testing.T) {
	// With an ORDER BY, multi-worker execution must give identical output
	// across runs despite nondeterministic morsel interleaving.
	tbl := makeTable()
	g := algebra.NewGroupBy(algebra.NewScan(tbl, "a", "b"), []string{"a"}, algebra.Sum("b", "t"))
	node := algebra.NewOrderBy(g, []string{"a"}, nil, 0)
	var first []string
	for run := 0; run < 3; run++ {
		res := execPlan(t, node, BackendHybrid, Options{Workers: 4, MorselSize: 64})
		var rows []string
		for i := 0; i < res.Rows(); i++ {
			rows = append(rows, fmt.Sprintf("%v", res.Chunk.Row(i)))
		}
		if first == nil {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatal("row count varies across runs")
		}
		for i := range rows {
			if rows[i] != first[i] {
				t.Fatalf("row %d varies across runs", i)
			}
		}
	}
	if !sort.StringsAreSorted(nil) { // keep sort import
		t.Fatal("unreachable")
	}
}
