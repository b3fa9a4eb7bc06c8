// benchdiff compares two inkbench JSON artifacts cell by cell and prints the
// per-query/backend wall-time delta. Cells slower than the baseline by more
// than the regression threshold are flagged, and with -fail the exit status
// reflects them so scripts/bench.sh can gate on trajectory.
//
//	go run ./cmd/benchdiff BENCH_PR4.json BENCH_PR5.json
//	go run ./cmd/benchdiff -threshold 0.10 -fail old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"inkfuse/internal/stats"
)

type cell struct {
	Query   string  `json:"query"`
	Backend string  `json:"backend"`
	WallMS  float64 `json:"wall_ms"`
	Rows    int64   `json:"rows"`

	// stats holds the cell's Bench counters (stats.Fields), decoded by name.
	stats stats.Counters
}

// UnmarshalJSON decodes the cell's fields and its Bench counters.
func (c *cell) UnmarshalJSON(data []byte) error {
	type plain cell
	if err := json.Unmarshal(data, (*plain)(c)); err != nil {
		return err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for i := range stats.Fields {
		f := &stats.Fields[i]
		if v, ok := raw[f.Name]; ok && f.On&stats.Bench != 0 {
			if err := json.Unmarshal(v, f.Get(&c.stats)); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
	}
	return nil
}

// key identifies a cell across artifacts.
func (c cell) key() string { return c.Query + "/" + c.Backend }

// counters reports whether the cell carries any behaviour counters worth
// diffing (older artifacts predate them and decode as all-zero).
func (c cell) counters() bool { return c.stats.Line(stats.Bench) != "" }

// benchColumns joins the Bench counters with "/": their names when c is
// nil, else their values in c.
func benchColumns(c *stats.Counters) string {
	var parts []string
	for i := range stats.Fields {
		f := &stats.Fields[i]
		switch {
		case f.On&stats.Bench == 0:
		case c == nil:
			parts = append(parts, f.Name)
		default:
			parts = append(parts, strconv.FormatInt(*f.Get(c), 10))
		}
	}
	return strings.Join(parts, "/")
}

type report struct {
	SF      float64 `json:"sf"`
	Workers int     `json:"workers"`
	Runs    int     `json:"runs"`
	Cells   []cell  `json:"cells"`
}

// load reads one artifact and keeps the first cell per query/backend key.
// Older artifacts can carry several cells under one key (BENCH_PR10.json
// measured each query/backend twice, along an axis that no longer exists);
// later duplicates are dropped with one note, so the baseline is always the
// first measurement.
func load(w io.Writer, path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool, len(r.Cells))
	kept := r.Cells[:0]
	for _, c := range r.Cells {
		if !seen[c.key()] {
			seen[c.key()] = true
			kept = append(kept, c)
		}
	}
	if dup := len(r.Cells) - len(kept); dup > 0 {
		fmt.Fprintf(w, "note: %s: ignored %d duplicate query/backend cell(s), keeping the first of each\n", path, dup)
	}
	r.Cells = kept
	return &r, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "flag cells slower than baseline by more than this fraction")
	failOnRegress := flag.Bool("fail", false, "exit 1 if any cell regresses past the threshold")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] baseline.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	regressions, err := diff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if regressions > 0 && *failOnRegress {
		os.Exit(1)
	}
}

// diff prints the cell-by-cell comparison of two artifacts and returns the
// number of cells slower than the baseline by more than threshold.
func diff(w io.Writer, basePath, nextPath string, threshold float64) (int, error) {
	base, err := load(w, basePath)
	if err != nil {
		return 0, err
	}
	next, err := load(w, nextPath)
	if err != nil {
		return 0, err
	}
	if base.SF != next.SF {
		fmt.Fprintf(w, "note: scale factors differ (baseline SF %g, new SF %g) — deltas are not comparable\n", base.SF, next.SF)
	}
	if base.Workers != next.Workers {
		fmt.Fprintf(w, "note: worker counts differ (baseline %d, new %d) — wall-time deltas reflect parallelism, not code\n",
			base.Workers, next.Workers)
	}

	old := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		old[c.key()] = c
	}

	fmt.Fprintf(w, "%-6s %-11s %10s %10s %9s\n", "query", "backend", "base ms", "new ms", "delta")
	regressions := 0
	anyCounters := false
	for _, c := range next.Cells {
		b, ok := old[c.key()]
		if !ok {
			fmt.Fprintf(w, "%-6s %-11s %10s %10.2f %9s\n", c.Query, c.Backend, "-", c.WallMS, "new")
			continue
		}
		anyCounters = anyCounters || b.counters() || c.counters()
		delta := c.WallMS/b.WallMS - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-6s %-11s %10.2f %10.2f %+8.1f%%%s\n", c.Query, c.Backend, b.WallMS, c.WallMS, 100*delta, mark)
	}
	if anyCounters {
		fmt.Fprintf(w, "\ncounter deltas (%s, base -> new):\n", benchColumns(nil))
		for _, c := range next.Cells {
			b, ok := old[c.key()]
			if !ok || (!b.counters() && !c.counters()) {
				continue
			}
			fmt.Fprintf(w, "%-6s %-11s %s -> %s\n", c.Query, c.Backend,
				benchColumns(&b.stats), benchColumns(&c.stats))
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d cell(s) regressed more than %.0f%%\n", regressions, 100*threshold)
	}
	return regressions, nil
}
