package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the code to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that a result reports exactly the named metrics, with
// the declared units and finite values.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == math.MaxFloat64:
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the code has %d workloads", names, len(workloads))
	}
}

// TestSmoke runs the whole harness at a tiny scale: oracle, closed loop,
// checker and the traced run with its joins, so they cannot rot between
// performance changes.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range []workload{
		{name: "smoke-pair", sf: 0.002, clients: 2, planCache: true},
		{name: "smoke-adhoc", sf: 0.002, clients: 1, planCache: false},
	} {
		t.Run(w.name, func(t *testing.T) {
			exp, err := computeExpected(w.sf)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := runUntraced(w, 7, 300*time.Millisecond, exp, nil, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 8 {
				t.Fatalf("untraced run: %+v", res)
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)

			res, report, err := runTraced(w, 7, 300*time.Millisecond, exp, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v", res)
			}
			checkMetrics(t, res.Metrics, spec.PerLayer)
			if _, err := os.Stat(report["trace_file"].(string)); err != nil {
				t.Errorf("trace file: %v", err)
			}
			hit := res.Metrics["plancache.hit_ratio"].Value
			if w.planCache != (hit > 0) {
				t.Errorf("plancache.hit_ratio = %v with plan cache %v", hit, w.planCache)
			}
		})
	}
}

func TestCheckerRejectsPerturbedRow(t *testing.T) {
	exp, err := computeExpected(0.002)
	if err != nil {
		t.Fatal(err)
	}
	if err := selfTest(exp); err != nil {
		t.Fatal(err)
	}
	r := exp.Queries["q1"]
	cells := r.cellsOf(r.Rows)
	slices.Reverse(cells) // bag comparison: order does not matter
	if err := r.check(r.Columns, cells, len(cells), false); err != nil {
		t.Fatalf("reordered rows rejected: %v", err)
	}
	if err := r.check(r.Columns, cells[1:], len(cells), false); err == nil {
		t.Error("a missing row was accepted")
	}
	if err := r.check(r.Columns, cells, len(cells), true); err == nil {
		t.Error("a truncated result was accepted")
	}
	cells[0] = slices.Clone(cells[0])
	cells[0][2] = json.Number("1e300")
	if err := r.check(r.Columns, cells, len(cells), false); err == nil {
		t.Error("a perturbed row was accepted")
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		a, b     int64
		children [][2]int64
		want     int64
	}{
		{0, 10, nil, 10},
		{0, 10, [][2]int64{{2, 4}}, 8},
		{0, 10, [][2]int64{{2, 6}, {4, 8}}, 4},   // overlapping children count once
		{0, 10, [][2]int64{{-5, 3}, {9, 20}}, 6}, // clipped to the parent
		{0, 10, [][2]int64{{0, 10}, {3, 4}}, 0},
	} {
		if got := selfTime(tc.a, tc.b, tc.children); got != tc.want {
			t.Errorf("selfTime(%d, %d, %v) = %d, want %d", tc.a, tc.b, tc.children, got, tc.want)
		}
	}
}
