package inkfuse

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"inkfuse/internal/benchkit"
	"inkfuse/internal/serve"
)

var updateSurfaces = flag.Bool("update-surfaces", false, "rewrite testdata/surfaces.golden from the current build")

// syncBuffer is a bytes.Buffer safe for the server's logging goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSurfaceNamesGolden pins the names every telemetry surface exports —
// /metrics sample names and TYPE lines, the /debug/vars "inkfuse" keys,
// MetricsText names, the canonical query-log keys of a q3 hybrid run and the
// bench JSON cell keys — against testdata/surfaces.golden, so a refactor of
// the telemetry plumbing cannot rename or drop a name scrapers and committed
// artifacts depend on. HELP lines are not pinned: they are documentation.
// Regenerate with `go test -run TestSurfaceNamesGolden -update-surfaces`.
func TestSurfaceNamesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs queries through the server and the bench harness")
	}
	got := surfaceNames(t)
	path := filepath.Join("testdata", "surfaces.golden")
	if *updateSurfaces {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("surface names changed (run with -update-surfaces only for a deliberate rename)\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for l, n := range count {
		switch {
		case n > 0:
			b.WriteString("- " + l + "\n")
		case n < 0:
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}

// surfaceNames renders every surface's sorted name set as one section per
// surface.
func surfaceNames(t *testing.T) string {
	logs := &syncBuffer{}
	srv := serve.New(serve.Config{
		SF:            0.01,
		SlowQuery:     time.Hour,
		Logger:        slog.New(slog.NewJSONHandler(logs, nil)),
		LogSampleRate: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fetch := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s %v", method, path, resp.StatusCode, data, err)
		}
		return data
	}
	q3, ok := TPCHSQL("q3")
	if !ok {
		t.Fatal("no SQL text for q3")
	}
	// The query log elides compile-job and artifact keys while they are
	// zero, and whether the hybrid background compile lands before the
	// first run ends is a race. Repeat the statement (plan-cache hits lease
	// the same artifacts) until one event reports a landed artifact, and pin
	// the union of the events' keys.
	body, _ := json.Marshal(map[string]string{"sql": q3, "backend": "hybrid"})
	events := map[string]bool{}
	for i := 0; i < 200 && !events["artifacts_reused"]; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		fetch("POST", "/query", string(body))
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var e map[string]any
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("query log line %q: %v", line, err)
			}
			if e["msg"] == "query" {
				for k := range e {
					events[k] = true
				}
			}
		}
	}

	var b strings.Builder
	section := func(name string, set map[string]bool) {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("== " + name + "\n")
		for _, k := range keys {
			b.WriteString(k + "\n")
		}
	}

	prom := map[string]bool{}
	for _, line := range strings.Split(string(fetch("GET", "/metrics", "")), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			prom[line] = true
		default:
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			prom[name] = true
		}
	}
	section("/metrics", prom)

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(fetch("GET", "/debug/vars", ""), &vars); err != nil {
		t.Fatal(err)
	}
	var engine map[string]any
	if err := json.Unmarshal(vars["inkfuse"], &engine); err != nil {
		t.Fatal(err)
	}
	section("/debug/vars inkfuse", keySet(engine))

	text := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(MetricsText()), "\n") {
		name, _, _ := strings.Cut(line, " ")
		text[name] = true
	}
	section("MetricsText", text)

	section("query log (q3 hybrid, sql)", events)

	rep, err := benchkit.JSONBench(benchkit.Config{SF: 0.01, Runs: 1, Workers: 2, Queries: []string{"q3"}}, benchkit.Fig9Systems)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct{ Cells []map[string]any }
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	cells := map[string]bool{}
	for _, c := range decoded.Cells {
		for k := range c {
			cells[k] = true
		}
	}
	section("bench JSON cell (q3, every backend)", cells)
	return b.String()
}

func keySet(m map[string]any) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
