package tpch

import (
	"fmt"

	"inkfuse/internal/algebra"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
)

// Queries lists the supported TPC-H queries in the paper's order.
var Queries = []string{"q1", "q3", "q4", "q5", "q6", "q13", "q14", "q19"}

// ExtendedQueries go beyond the paper's eight (an engine-coverage extension,
// not part of the reproduced figures): Q12 is faithful; Q10 is simplified to
// the generated columns (no c_name/c_acctbal/c_address/c_phone — the
// grouping collapses to (o_custkey, n_name), which preserves the plan shape:
// three joins into a high-cardinality aggregation with a top-k).
var ExtendedQueries = []string{"q10", "q12"}

// Build returns the plan for the named query over the catalog: its SQL text
// (SQL[name]) compiled through the text frontend. The texts spell out the
// paper's Umbra-style join orders, so the frontend's syntactic planning
// yields the plans the paper evaluates.
func Build(cat *storage.Catalog, name string) (algebra.Node, error) {
	text, ok := SQL[name]
	if !ok {
		return nil, fmt.Errorf("tpch: unknown query %q", name)
	}
	stmt, err := sql.Compile(cat, text)
	if err != nil {
		return nil, fmt.Errorf("tpch: %s: %w", name, err)
	}
	return stmt.Root, nil
}
