package inkfuse

import (
	"strings"
	"testing"
)

// Tests of the public facade: everything an application can reach.

func exampleTable() *Table {
	t := NewTable("sales", Schema{
		{Name: "region", Kind: String},
		{Name: "amount", Kind: Float64},
		{Name: "day", Kind: Date},
	})
	for i := 0; i < 3000; i++ {
		t.AppendRow([]string{"n", "s", "e"}[i%3], float64(i%100), MkDate(1995, 1, 1+i%30))
	}
	return t
}

func TestPublicAPIRoundtrip(t *testing.T) {
	tbl := exampleTable()
	cat := NewCatalog()
	cat.Add(tbl)
	plan := NewOrderBy(
		NewGroupBy(
			NewFilter(NewScan(tbl, "region", "amount", "day"),
				And(Gt(Col("amount"), F64(10)),
					Lt(Col("day"), DateLit("1995-01-20")))),
			[]string{"region"},
			Sum("amount", "total"), Count("n"), Avg("amount", "avg")),
		[]string{"total"}, []bool{true}, 0)

	oracle, err := RunVolcano(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendVectorized, BackendCompiling, BackendROF, BackendHybrid} {
		lat := LatencyNone
		res, err := Run(plan, "api", Options{Backend: backend, Latency: &lat})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.Rows() != oracle.Rows() {
			t.Fatalf("%v: %d rows vs oracle %d", backend, res.Rows(), oracle.Rows())
		}
		if len(res.Cols) != 4 || res.Cols[1] != "total" {
			t.Fatalf("column names: %v", res.Cols)
		}
		for i := 0; i < res.Rows(); i++ {
			if res.Chunk.Row(i)[0] != oracle.Row(i)[0] {
				t.Fatalf("%v: row %d key mismatch", backend, i)
			}
		}
	}
}

func TestLowerThenExecute(t *testing.T) {
	tbl := exampleTable()
	node := NewGroupBy(NewScan(tbl, "amount"), nil, Sum("amount", "s"))
	plan, err := Lower(node, "sep")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, Options{Backend: BackendVectorized})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestTPCHEndToEnd(t *testing.T) {
	cat := GenerateTPCH(0.001, 7)
	if len(TPCHQueries()) != 8 {
		t.Fatalf("queries = %d", len(TPCHQueries()))
	}
	for _, q := range TPCHQueries() {
		node, err := TPCHQuery(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(node, q, Options{Backend: BackendHybrid})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Rows() == 0 {
			t.Fatalf("%s: empty result", q)
		}
	}
	if _, err := TPCHQuery(cat, "q2"); err == nil {
		t.Fatal("q2 is not supported and must error")
	}
}

func TestGeneratedCArtifact(t *testing.T) {
	tbl := exampleTable()
	node := NewProject(NewMap(NewScan(tbl, "amount"),
		NamedExpr{As: "y", E: Add(Col("amount"), F64(42))}), "y")
	c, err := GeneratedC(node, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"void pipeline_", "ink_const_t", "for (int64_t i"} {
		if !strings.Contains(c, want) {
			t.Fatalf("generated C missing %q:\n%s", want, c)
		}
	}
}

func TestPrimitiveAndSubOperatorCounts(t *testing.T) {
	n, err := PrimitiveCount()
	if err != nil {
		t.Fatal(err)
	}
	if n < 150 {
		t.Fatalf("primitives = %d", n)
	}
	if fams := SubOperatorCount(); fams < 18 || fams > 40 {
		t.Fatalf("suboperator families = %d", fams)
	}
}

func TestExplain(t *testing.T) {
	cat := GenerateTPCH(0.001, 7)
	node, err := TPCHQuery(cat, "q3")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Explain(node, "q3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pipeline p0", "scan customer", "joininsert",
		"joinprobe_inner", "agglookup", "sink: result", "order by",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain missing %q:\n%s", want, s)
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	cat := GenerateTPCH(0.001, 7)
	node, err := TPCHQuery(cat, "q3")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyNone
	s, res, err := ExplainAnalyze(node, "q3", Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() == 0 || res.Trace == nil {
		t.Fatalf("rows=%d trace=%v", res.Rows(), res.Trace)
	}
	for _, want := range []string{"pipeline p0", "  -- ", "== tables:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain analyze missing %q:\n%s", want, s)
		}
	}
}

func TestDateHelpers(t *testing.T) {
	d := MkDate(1998, 9, 2)
	if DateString(d) != "1998-09-02" {
		t.Fatal("date helpers broken")
	}
}

func TestMorselsExport(t *testing.T) {
	if len(Morsels(100, 40)) != 3 {
		t.Fatal("morsels export broken")
	}
}
