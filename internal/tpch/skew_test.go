package tpch

import (
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// TestHeavyHitterSingleKey aggregates 20k rows that all share one group key
// (the worst-case duplicate skew) with four workers. Every worker hammers the
// same group of the shared sharded table; the thread-local pre-aggregation
// must absorb the lookups and the merged result must stay exact.
func TestHeavyHitterSingleKey(t *testing.T) {
	tbl := storage.NewTable("skewed", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Float64},
	})
	const rows = 20000
	for i := 0; i < rows; i++ {
		tbl.AppendRow(int64(7), float64(i))
	}
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "k", "v"),
		[]string{"k"}, algebra.Sum("v", "s"), algebra.Count("c"))
	for _, backend := range []exec.Backend{exec.BackendVectorized, exec.BackendHybrid} {
		plan, err := algebra.Lower(node, "skew")
		if err != nil {
			t.Fatal(err)
		}
		lat := exec.LatencyNone
		res, err := exec.Execute(plan, exec.Options{Backend: backend, Workers: 4, Latency: &lat})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.Rows() != 1 {
			t.Fatalf("%v: got %d groups, want 1", backend, res.Rows())
		}
		got := rowsOf(res.Chunk)[0]
		want := "[000007 1.9999e+08 020000]"
		if got != want {
			t.Fatalf("%v: got %s, want %s", backend, got, want)
		}
		if res.Stats.HTLocalHits == 0 {
			t.Fatalf("%v: no thread-local pre-aggregation hits on a single hot key", backend)
		}
	}
}
