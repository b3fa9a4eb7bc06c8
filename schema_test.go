package inkfuse

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"testing"

	"inkfuse/internal/benchkit"
	"inkfuse/internal/exec"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/obs"
	"inkfuse/internal/stats"
)

// schemaRun is one executed query of the coverage set with everything its
// surfaces render.
type schemaRun struct {
	name    string
	res     *Result
	err     error
	explain string
}

// schemaRuns executes a small query set that together drives every counter
// of the telemetry schema nonzero: aggregation with thread-local tables under
// a memory budget on the hybrid backend, a join with bloom-filter skips, a
// foreground compile wait, a recovered panic and a failed background
// compile.
func schemaRuns(t *testing.T) []schemaRun {
	t.Helper()
	cat := GenerateTPCH(0.01, 42)
	none := LatencyNone
	run := func(name, q string, opts Options, fault func()) schemaRun {
		t.Helper()
		defer faultinject.Reset()
		if fault != nil {
			fault()
		}
		node, err := TPCHQuery(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers, opts.MorselSize = 2, 1024
		out, res, err := ExplainAnalyze(node, q, opts)
		if res == nil {
			t.Fatalf("%s: no result: %v", name, err)
		}
		return schemaRun{name, res, err, out}
	}
	return []schemaRun{
		run("q1 hybrid, budget", "q1", Options{Backend: BackendHybrid, Latency: &none, MemoryBudget: 1 << 30}, nil),
		run("q3 vectorized", "q3", Options{Backend: BackendVectorized}, nil),
		run("q6 compiling", "q6", Options{Backend: BackendCompiling}, nil),
		run("q6 panic", "q6", Options{Backend: BackendVectorized}, func() {
			faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 1, Panic: "injected"})
		}),
		run("q6 compile failure", "q6", Options{Backend: BackendHybrid, Latency: &none}, func() {
			faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{Err: errors.New("injected compile failure")})
		}),
	}
}

// tableKeys collects the name=value pairs of every "tables:" line (EXPLAIN
// ANALYZE footer and pipelines, trace dump) in out.
func tableKeys(out string) map[string]int64 {
	keys := map[string]int64{}
	for _, line := range strings.Split(out, "\n") {
		_, pairs, ok := strings.Cut(line, "tables: ")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(pairs) {
			k, v, _ := strings.Cut(kv, "=")
			n, _ := strconv.ParseInt(v, 10, 64)
			keys[k] = max(keys[k], n)
		}
	}
	return keys
}

// jsonKeys decodes one JSON object's numeric values by key.
func jsonKeys(t *testing.T, raw []byte) map[string]int64 {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%v: %s", err, raw)
	}
	out := map[string]int64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = int64(f)
		} else {
			out[k] = -1 // present, not a counter
		}
	}
	return out
}

// TestSchemaCoverage is the telemetry schema's acceptance test: for every
// stats.Fields entry, a query that drives the counter nonzero renders it —
// under its surface name and with its value — on every surface its bitmask
// claims, and on no other.
func TestSchemaCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the coverage query set")
	}
	runs := schemaRuns(t)
	for i := range stats.Fields {
		f := &stats.Fields[i]
		t.Run(f.Name, func(t *testing.T) {
			var r *schemaRun
			for j := range runs {
				if *f.Get(&runs[j].res.Stats) != 0 {
					r = &runs[j]
					break
				}
			}
			if r == nil {
				t.Fatalf("no query of the coverage set drives %s nonzero; extend schemaRuns", f.Name)
			}
			want := *f.Get(&r.res.Stats)

			// Process totals: a fresh registry fed this query, rendered as
			// the expvar view, the MetricsText dump and /metrics.
			reg := obs.NewRegistry()
			reg.QueryDone("test", &r.res.Stats, r.res.Wall, r.err, false, false)
			snap := reg.Snapshot()
			dump := "\n" + reg.Dump()
			prom := "\n" + reg.PrometheusText()
			name := f.NameOn(stats.Totals)
			if f.On&stats.Totals != 0 {
				if snap[name] != want {
					t.Errorf("%s: process total %s = %d, want %d", r.name, name, snap[name], want)
				}
				line := "\ninkfuse_" + name + " " + strconv.FormatInt(want, 10) + "\n"
				if !strings.Contains(dump, line) || !strings.Contains(prom, line) {
					t.Errorf("%s: MetricsText or /metrics lacks %q", r.name, strings.TrimSpace(line))
				}
			} else {
				for _, n := range []string{f.Name, name} {
					if _, ok := snap[n]; ok || strings.Contains(prom, "inkfuse_"+n+" ") {
						t.Errorf("process totals render %s, which the schema keeps off them", n)
					}
				}
			}

			// Query log: the canonical event's attributes.
			var buf bytes.Buffer
			exec.NewQueryEvent(r.res, r.err).Emit(slog.New(slog.NewJSONHandler(&buf, nil)))
			check(t, "query log", jsonKeys(t, buf.Bytes()), f.Name, want, f.On&stats.QueryLog != 0, true)

			// EXPLAIN ANALYZE footer and pipeline lines, and the trace dump.
			footer := tableKeys(firstLine(r.explain, "== tables: "))
			pipes := tableKeys(strings.ReplaceAll(r.explain, "== tables: ", ""))
			dumped := tableKeys(r.res.Trace.Dump())
			claimed := f.On&stats.Tables != 0
			check(t, "EXPLAIN == tables:", footer, f.NameOn(stats.Tables), want, claimed, true)
			check(t, "EXPLAIN -- tables:", pipes, f.NameOn(stats.Tables), want, claimed, false)
			check(t, "trace tables:", dumped, f.NameOn(stats.Tables), want, claimed, false)

			// Bench JSON cell.
			raw, err := json.Marshal(benchkit.JSONCell{Query: "q", Backend: "b", Stats: r.res.Stats})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "bench JSON", jsonKeys(t, raw), f.Name, want, f.On&stats.Bench != 0, true)
		})
	}
}

// check asserts that keys carries name with value want when the surface is
// claimed, and lacks it otherwise. Per-pipeline lines split a counter across
// pipelines (exact false), so there a claimed name only needs a nonzero
// value.
func check(t *testing.T, surface string, keys map[string]int64, name string, want int64, claimed, exact bool) {
	t.Helper()
	got, ok := keys[name]
	switch {
	case claimed && !ok:
		t.Errorf("%s lacks %s", surface, name)
	case claimed && exact && got != want:
		t.Errorf("%s renders %s=%d, want %d", surface, name, got, want)
	case claimed && got == 0:
		t.Errorf("%s renders %s=0", surface, name)
	case !claimed && ok:
		t.Errorf("%s renders %s, which the schema keeps off it", surface, name)
	}
}

// firstLine returns the first line of out that starts with prefix, or "".
func firstLine(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
