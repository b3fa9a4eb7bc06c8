package obs

import (
	"errors"
	"expvar"
	"regexp"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/stats"
)

func TestRegistryFolding(t *testing.T) {
	r := NewRegistry()
	r.Add(QueriesStarted, 1)
	r.Add(QueriesStarted, 1)
	r.Add(QueriesStarted, 1)

	c1 := &stats.Counters{Tuples: 100, EmittedRows: 10, CompileTime: time.Millisecond, MemPeakBytes: 512}
	r.QueryDone("vectorized", c1, 2*time.Millisecond, nil, false, false)

	c2 := &stats.Counters{Tuples: 50, PanicsRecovered: 1, MemPeakBytes: 256}
	r.QueryDone("vectorized", c2, time.Millisecond, errors.New("boom"), false, false)

	c3 := &stats.Counters{Tuples: 7, CompileErrors: 1}
	r.QueryDone("hybrid", c3, time.Millisecond, errors.New("ctx"), true, true)

	s := r.Snapshot()
	if s["queries_started"] != 3 || s["queries_succeeded"] != 1 || s["queries_failed"] != 1 || s["queries_canceled"] != 1 {
		t.Fatalf("query counts wrong: %+v", s)
	}
	if s["tuples"] != 157 || s["emitted_rows"] != 10 || s["panics_recovered"] != 1 || s["compile_errors"] != 1 {
		t.Fatalf("counter folding wrong: %+v", s)
	}
	if s["degraded_queries"] != 1 {
		t.Fatalf("degraded count wrong: %+v", s)
	}
	if s["mem_peak_bytes"] != 512 {
		t.Fatalf("mem peak gauge: got %d, want 512", s["mem_peak_bytes"])
	}
	if s["query_nanos"] != int64(4*time.Millisecond) {
		t.Fatalf("query nanos: got %d", s["query_nanos"])
	}
}

func TestQueryDoneNilCounters(t *testing.T) {
	r := NewRegistry()
	r.QueryDone("vectorized", nil, time.Millisecond, errors.New("early"), false, false)
	if s := r.Snapshot(); s["queries_failed"] != 1 || s["tuples"] != 0 {
		t.Fatalf("nil counters mishandled: %+v", s)
	}
}

func TestDumpFormat(t *testing.T) {
	r := NewRegistry()
	r.Add(QueriesStarted, 1)
	r.QueryDone("vectorized", &stats.Counters{Tuples: 5}, time.Millisecond, nil, false, false)
	out := r.Dump()
	for _, want := range []string{"inkfuse_queries_started 1", "inkfuse_queries_succeeded 1", "inkfuse_tuples 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestExpvarPublished(t *testing.T) {
	if expvar.Get("inkfuse") == nil {
		t.Fatal("default registry not published under expvar key \"inkfuse\"")
	}
}

// Line grammar of the Prometheus text-format lint in scripts/check.sh.
var (
	promComment = regexp.MustCompile(`^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$`)
)

// TestFreshRegistryExposition: before any observation, the exposition
// already declares every metric — each flat value and each histogram family
// carries its HELP and TYPE lines — and every line passes the lint.
func TestFreshRegistryExposition(t *testing.T) {
	r := NewRegistry()
	out := r.PrometheusText()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promComment.MatchString(line) && !promSample.MatchString(line) {
			t.Errorf("line fails the Prometheus lint: %q", line)
		}
	}
	var names []string
	for _, s := range r.samples() {
		names = append(names, "inkfuse_"+s.Name)
	}
	for _, f := range []*Family{r.QueryLatency, r.MorselLatency, r.QueryRows, r.QueueWait} {
		names = append(names, f.Name)
		if !strings.Contains(out, "# TYPE "+f.Name+" histogram\n") {
			t.Errorf("fresh exposition missing TYPE for family %s", f.Name)
		}
	}
	for _, n := range names {
		if !strings.Contains(out, "# HELP "+n+" ") || !strings.Contains(out, "# TYPE "+n+" ") {
			t.Errorf("fresh exposition missing HELP/TYPE for %s", n)
		}
	}
}
