package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
	"inkfuse/internal/volcano"
)

// Oracle methods. Volcano materializes every row as []any, which at SF 1
// needs more than 5 GB for q1 alone, so scale factors above volcanoMaxSF are
// checked against the engine's single-worker vectorized backend instead —
// a different execution axis (interpreter, one worker, no plan cache, no
// compiled code) from the one served — after that reference has itself been
// shown equal to Volcano at volcanoMaxSF.
const (
	methodVolcano    = "volcano"
	methodVectorized = "vectorized-1w"
	volcanoMaxSF     = 0.1
)

// floatRelTol is the agreement the checker demands of float columns: six
// significant digits. Parallel aggregation sums in a different order than
// the oracle, so bit equality is not expected.
const floatRelTol = 5e-6

// expected holds the reference result of every TPC-H query at one scale
// factor and catalog seed.
type expected struct {
	SF          float64                 `json:"sf"`
	CatalogSeed uint64                  `json:"catalog_seed"`
	Method      string                  `json:"method"`
	Queries     map[string]*queryResult `json:"queries"`
}

// queryResult is one query's result in canonical text form: ints in
// decimal, floats at full precision, dates as YYYY-MM-DD.
type queryResult struct {
	Columns []string   `json:"columns"`
	Kinds   []string   `json:"kinds"` // "int", "float" or "string" per column
	Rows    [][]string `json:"rows"`
}

func oracleMethod(sf float64) string {
	if sf <= volcanoMaxSF {
		return methodVolcano
	}
	return methodVectorized
}

// oraclePath names the cached expected results for sf. The key includes a
// hash of the engine sources, so an engine change recomputes the oracle
// instead of comparing against results of older code.
func oraclePath(dir string, sf float64, srcHash string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-sf%g-seed%d-%s.json", oracleMethod(sf), sf, catalogSeed, srcHash[:12]))
}

// computeExpected runs every query at sf through the oracle for that scale
// factor. It is meant to run in its own process: the oracle's memory must
// not count towards the benchmark's peak RSS.
func computeExpected(sf float64) (*expected, error) {
	method := oracleMethod(sf)
	exp := &expected{SF: sf, CatalogSeed: catalogSeed, Method: method, Queries: map[string]*queryResult{}}
	cat := tpch.Generate(sf, catalogSeed)
	for _, q := range tpch.Queries {
		stmt, err := sql.Compile(cat, tpch.SQL[q])
		if err != nil {
			return nil, fmt.Errorf("oracle: compiling %s: %w", q, err)
		}
		var chunk *storage.Chunk
		cols := stmt.Columns
		if method == methodVolcano {
			if chunk, err = volcano.Run(stmt.Root); err != nil {
				return nil, fmt.Errorf("oracle: volcano %s: %w", q, err)
			}
		} else {
			res, err := runVectorizedReference(stmt)
			if err != nil {
				return nil, fmt.Errorf("oracle: vectorized %s: %w", q, err)
			}
			chunk, cols = res.Chunk, res.Cols
		}
		if exp.Queries[q], err = canonicalChunk(chunk, cols); err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q, err)
		}
		runtime.GC()
	}
	return exp, nil
}

// runVectorizedReference executes a statement on the vectorized backend with
// one worker and a fresh plan.
func runVectorizedReference(stmt *sql.Statement) (*exec.Result, error) {
	plan, err := lowerBound(stmt)
	if err != nil {
		return nil, err
	}
	return exec.ExecuteContext(context.Background(), plan, exec.Options{Backend: exec.BackendVectorized, Workers: 1})
}

// lowerBound lowers a statement to a fresh plan and binds its literal values,
// as the server does on a plan-cache miss.
func lowerBound(stmt *sql.Statement) (*core.Plan, error) {
	plan, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
	if err != nil {
		return nil, err
	}
	return plan, stmt.BindArgs(params, nil)
}

// anchorVectorizedReference checks the vectorized reference against Volcano
// at volcanoMaxSF, so that the reference used above it is itself anchored to
// the independent oracle.
func anchorVectorizedReference(volcanoExp *expected) error {
	cat := tpch.Generate(volcanoExp.SF, catalogSeed)
	for _, q := range tpch.Queries {
		stmt, err := sql.Compile(cat, tpch.SQL[q])
		if err != nil {
			return err
		}
		res, err := runVectorizedReference(stmt)
		if err != nil {
			return err
		}
		if err := volcanoExp.Queries[q].check(res.Cols, chunkCells(res.Chunk), res.Rows(), false); err != nil {
			return fmt.Errorf("oracle: vectorized reference disagrees with volcano at SF %g on %s: %w", volcanoExp.SF, q, err)
		}
	}
	return nil
}

func kindName(k types.Kind) (string, error) {
	switch k {
	case types.Int32, types.Int64:
		return "int", nil
	case types.Float64:
		return "float", nil
	case types.String, types.Date, types.Bool:
		return "string", nil
	}
	return "", fmt.Errorf("unsupported result kind %v", k)
}

// chunkCells renders a result chunk the way inkserve renders a response:
// dates as calendar strings, everything else as its Go value.
func chunkCells(c *storage.Chunk) [][]any {
	rows := make([][]any, c.Rows())
	for i := range rows {
		row := c.Row(i)
		for j, col := range c.Cols {
			if col.Kind == types.Date {
				row[j] = types.DateString(col.I32[i])
			}
		}
		rows[i] = row
	}
	return rows
}

func canonicalChunk(c *storage.Chunk, cols []string) (*queryResult, error) {
	r := &queryResult{Columns: cols}
	for _, col := range c.Cols {
		k, err := kindName(col.Kind)
		if err != nil {
			return nil, err
		}
		r.Kinds = append(r.Kinds, k)
	}
	rows, err := r.canonicalRows(chunkCells(c))
	if err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}

// canonicalRows converts result cells (Go values or JSON-decoded values) to
// canonical text by the result's column kinds, sorted into bag order.
func (r *queryResult) canonicalRows(cells [][]any) ([][]string, error) {
	out := make([][]string, len(cells))
	for i, row := range cells {
		if len(row) != len(r.Kinds) {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(row), len(r.Kinds))
		}
		out[i] = make([]string, len(row))
		for j, v := range row {
			s, err := canonicalValue(r.Kinds[j], v)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", i, r.Columns[j], err)
			}
			out[i][j] = s
		}
	}
	slices.SortFunc(out, r.compareRows)
	return out, nil
}

func canonicalValue(kind string, v any) (string, error) {
	switch kind {
	case "int":
		switch x := v.(type) {
		case int32:
			return strconv.FormatInt(int64(x), 10), nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case json.Number:
			n, err := x.Int64()
			if err != nil {
				return "", fmt.Errorf("want an integer, got %s", x)
			}
			return strconv.FormatInt(n, 10), nil
		}
	case "float":
		switch x := v.(type) {
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case json.Number:
			f, err := x.Float64()
			if err != nil {
				return "", fmt.Errorf("want a number, got %s", x)
			}
			return strconv.FormatFloat(f, 'g', -1, 64), nil
		}
	case "string":
		switch x := v.(type) {
		case string:
			return x, nil
		case bool:
			return strconv.FormatBool(x), nil
		}
	}
	return "", fmt.Errorf("want a %s, got %T %v", kind, v, v)
}

// compareRows orders canonical rows column by column: ints and floats
// numerically, strings bytewise.
func (r *queryResult) compareRows(a, b []string) int {
	for j, k := range r.Kinds {
		var c int
		switch k {
		case "int":
			x, _ := strconv.ParseInt(a[j], 10, 64)
			y, _ := strconv.ParseInt(b[j], 10, 64)
			c = cmp.Compare(x, y)
		case "float":
			x, _ := strconv.ParseFloat(a[j], 64)
			y, _ := strconv.ParseFloat(b[j], 64)
			c = cmp.Compare(x, y)
		default:
			c = strings.Compare(a[j], b[j])
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// check bag-compares a served result against the expected one: same columns,
// the full row count with nothing truncated, and row for row equal values
// with floats agreeing to six significant digits.
func (r *queryResult) check(cols []string, cells [][]any, totalRows int, truncated bool) error {
	if !slices.Equal(cols, r.Columns) {
		return fmt.Errorf("columns %v, want %v", cols, r.Columns)
	}
	if truncated || totalRows != len(r.Rows) || len(cells) != len(r.Rows) {
		return fmt.Errorf("%d rows returned of %d (truncated=%v), want %d", len(cells), totalRows, truncated, len(r.Rows))
	}
	got, err := r.canonicalRows(cells)
	if err != nil {
		return err
	}
	for i := range got {
		for j, k := range r.Kinds {
			if !valuesAgree(k, got[i][j], r.Rows[i][j]) {
				return fmt.Errorf("row %d column %s: got %s, want %s", i, r.Columns[j], got[i][j], r.Rows[i][j])
			}
		}
	}
	return nil
}

func valuesAgree(kind, got, want string) bool {
	if kind != "float" {
		return got == want
	}
	x, err1 := strconv.ParseFloat(got, 64)
	y, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= floatRelTol*math.Max(math.Abs(x), math.Abs(y))
}

// cellsOf turns canonical rows back into JSON-decoded response cells.
func (r *queryResult) cellsOf(rows [][]string) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, s := range row {
			if r.Kinds[j] == "string" {
				out[i][j] = s
			} else {
				out[i][j] = json.Number(s)
			}
		}
	}
	return out
}

// selfTest proves the checker can fail: every query's expected rows must
// pass it, and a copy with one value of one row changed must not.
func selfTest(exp *expected) error {
	for _, q := range tpch.Queries {
		r := exp.Queries[q]
		if r == nil {
			return fmt.Errorf("self-test: no expected result for %s", q)
		}
		if err := r.check(r.Columns, r.cellsOf(r.Rows), len(r.Rows), false); err != nil {
			return fmt.Errorf("self-test: %s rejects its own expected rows: %w", q, err)
		}
		if len(r.Rows) == 0 {
			continue
		}
		perturbed := slices.Clone(r.Rows)
		perturbed[0] = slices.Clone(r.Rows[0])
		perturbed[0][len(r.Kinds)-1] = perturb(r.Kinds[len(r.Kinds)-1], perturbed[0][len(r.Kinds)-1])
		if r.check(r.Columns, r.cellsOf(perturbed), len(r.Rows), false) == nil {
			return fmt.Errorf("self-test: %s accepts a perturbed row", q)
		}
	}
	return nil
}

// perturb changes a canonical value by more than the checker tolerates.
func perturb(kind, s string) string {
	switch kind {
	case "int":
		n, _ := strconv.ParseInt(s, 10, 64)
		return strconv.FormatInt(n+1, 10)
	case "float":
		f, _ := strconv.ParseFloat(s, 64)
		return strconv.FormatFloat(f*(1+100*floatRelTol)+1e-3, 'g', -1, 64)
	}
	return s + "~"
}

func writeExpected(path string, exp *expected) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp expected
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(exp.Queries) == 0 {
		return nil, errors.New("oracle file " + path + " holds no queries")
	}
	return &exp, nil
}

// sourceHash identifies the code under test: a SHA-256 over the engine
// module's go.mod and non-test Go files. Hidden directories (the build
// directory) and nested modules (this benchmark among them) are skipped.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
