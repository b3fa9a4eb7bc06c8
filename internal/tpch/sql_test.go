package tpch

import (
	"fmt"
	"sort"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/sql"
)

// exactRows renders a result chunk at full precision; the differential suite
// demands byte identity, not approximate equality.
func exactRows(res *exec.Result) []string {
	out := make([]string, res.Chunk.Rows())
	for i := range out {
		out[i] = fmt.Sprintf("%v", res.Chunk.Row(i))
	}
	return out
}

// TestSQLDifferential compiles each query's canonical SQL text and asserts
// every backend's result is byte-identical to the vectorized backend's, at
// full precision rather than the six significant digits the golden file
// pins. At this scale each table is one morsel, so float sums merge in one
// order on every backend. The canonical texts must take no placeholders:
// Build, perfbench and inkserve clients run them verbatim.
func TestSQLDifferential(t *testing.T) {
	for _, q := range append(append([]string{}, Queries...), ExtendedQueries...) {
		t.Run(q, func(t *testing.T) {
			stmt, err := sql.Compile(testCat, SQL[q])
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if stmt.NumParams() != 0 {
				t.Fatalf("canonical text should have no placeholders, got %d", stmt.NumParams())
			}
			_, ordered := stmt.Root.(*algebra.OrderBy)
			var want []string
			for _, backend := range []exec.Backend{
				exec.BackendVectorized, exec.BackendCompiling, exec.BackendROF, exec.BackendHybrid,
			} {
				// Lower and bind the literals as inkserve does on a cache miss.
				plan, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				if err := stmt.BindArgs(params, nil); err != nil {
					t.Fatalf("bind args: %v", err)
				}
				lat := exec.LatencyNone
				res, err := exec.Execute(plan, exec.Options{Backend: backend, Workers: 2, Latency: &lat})
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				got := exactRows(res)
				if !ordered {
					sort.Strings(got)
				}
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%v: got %d rows, vectorized %d", backend, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v: row %d differs:\n got        %s\n vectorized %s", backend, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSQLFingerprintInvariance: same query shape with different literals must
// share a fingerprint (the plan-cache key), while a different shape must not.
func TestSQLFingerprintInvariance(t *testing.T) {
	a, err := sql.Compile(testCat, `select sum(l_extendedprice) as s from lineitem where l_quantity < 24`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sql.Compile(testCat, `select sum(l_extendedprice) as s from lineitem where l_quantity < 17`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("literal change altered fingerprint: %s vs %s", a.Fingerprint.Hex(), b.Fingerprint.Hex())
	}
	c, err := sql.Compile(testCat, `select sum(l_extendedprice) as s from lineitem where l_quantity > 24`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == c.Fingerprint {
		t.Fatal("operator change did not alter fingerprint")
	}
	d, err := sql.Compile(testCat, `select sum(l_extendedprice) as s from lineitem where l_quantity < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != d.Fingerprint {
		t.Fatal("placeholder and literal forms should share a fingerprint")
	}
}

// TestSQLPlaceholderExecution proves a ?-parameterized statement executes
// with values patched in at bind time and produces the same result as the
// inlined-literal text.
func TestSQLPlaceholderExecution(t *testing.T) {
	inline, err := sql.Compile(testCat,
		`select sum(l_extendedprice * l_discount) as revenue from lineitem
		 where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
		   and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24`)
	if err != nil {
		t.Fatal(err)
	}
	param, err := sql.Compile(testCat,
		`select sum(l_extendedprice * l_discount) as revenue from lineitem
		 where l_shipdate >= ? and l_shipdate < ? and l_discount >= ? and l_discount <= ? and l_quantity < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if inline.Fingerprint != param.Fingerprint {
		t.Fatal("parameterized text should share the inline fingerprint")
	}
	if param.NumParams() != 5 {
		t.Fatalf("want 5 params, got %d", param.NumParams())
	}
	run := func(s *sql.Statement, vals []any) []string {
		plan, params, err := algebra.LowerWithParams(s.Root, s.Name)
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		if err := s.BindArgs(params, vals); err != nil {
			t.Fatalf("bind: %v", err)
		}
		lat := exec.LatencyNone
		res, err := exec.Execute(plan, exec.Options{Backend: exec.BackendVectorized, Workers: 2, Latency: &lat})
		if err != nil {
			t.Fatal(err)
		}
		return exactRows(res)
	}
	want := run(inline, nil)
	got := run(param, []any{"1994-01-01", "1995-01-01", 0.05, 0.07, 24.0})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parameterized run differs:\n got  %v\n want %v", got, want)
	}
}
