package ir

import (
	"fmt"
	"strings"

	"inkfuse/internal/types"
)

// EmitC renders the Func as the C source an InkFuse-style engine would
// compile with clang. The Go engine executes the closure-compiled form of the
// same IR (internal/vm); this emitter exists to expose the generated-code
// artifact the paper shows in Figs 3, 5 and 6, and it is what cmd/primgen
// prints for the full vectorized interpreter. The output compiles against
// EmitCPrelude.
func EmitC(f *Func) string {
	var b strings.Builder
	e := &cemitter{w: &b}
	fmt.Fprintf(&b, "// generated by the inkfuse compilation stack\n")
	fmt.Fprintf(&b, "void %s(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {\n", f.Name)
	e.indent = 1
	if batchablePrim(f) {
		e.cBatched(f)
	} else {
		e.line("for (int64_t i = 0; i < n; ++i) {")
		e.indent++
		for i, v := range f.Ins {
			e.line("%s %s = ((%s*)in[%d]->data)[i];", v.K.CName(), v, v.K.CName(), i)
		}
		e.stmts(f.Body)
		e.indent--
		e.line("}")
	}
	e.indent--
	e.line("}")
	return b.String()
}

// EmitCPrelude returns the runtime interface every function EmitC renders
// compiles against: the vector, chunk and state layouts and the runtime
// hooks, declared for a C11 compiler. A source file holds it once, ahead of
// the generated functions.
func EmitCPrelude() string {
	return `/* Runtime interface of the inkfuse generated code. */
#include <stdbool.h>
#include <stdint.h>

typedef struct { const char* ptr; int64_t len; } ink_str_t;
typedef struct { void* data; } ink_vec_t;
typedef struct { ink_vec_t** cols; int64_t rows; } ink_chunk_t;
typedef struct { bool b; int32_t i32; int64_t i64; double f64; ink_str_t str; } ink_const_t;
typedef struct { int64_t off; } ink_offset_t;
typedef struct { void* table; } ink_agg_state_t;
typedef struct { void* table; } ink_join_state_t;
typedef struct { void* m; } ink_like_state_t;
typedef struct { void* set; } ink_inlist_state_t;
typedef struct { void* bucket; int64_t pos; } ink_match_iter_t;

uint64_t ink_hash(const char* key);
const char* ink_row_key(const char* row);
int64_t ink_row_key_len(const char* row);
int64_t ink_payload_off(const char* row);
char* ink_make_row(void* state, int64_t i);
char* ink_append_str(char* row, void* state, ink_str_t s);
char* ink_seal_key(void* state, char* row);
char* ink_agg_find_or_create(void* table, const char* key, uint64_t hash);
char* ink_agg_find_or_create_direct(void* table, const void* key);
char** ink_agg_find_or_create_batch(void* table, char** rows, int64_t n);
char** ink_agg_find_or_create_direct_batch(void* table, const void* keys, int64_t n);
void ink_join_insert(void* table, char* row, uint64_t hash);
void ink_join_insert_batch(void* table, char** rows, int64_t n);
void ink_join_prefetch_batch(void* table, char** rows, int64_t n);
bool ink_join_exists(void* table, const char* key);
ink_match_iter_t ink_join_lookup(void* table, const char* key);
char* ink_match_next(ink_match_iter_t* it);
int ink_strcmp(ink_str_t a, ink_str_t b);
bool ink_like(void* m, ink_str_t s);
bool ink_in_list(void* set, ink_str_t s);
ink_str_t ink_str_lower(ink_str_t s);
ink_str_t ink_unpack_str_key(const char* row, void* state);
ink_str_t ink_unpack_str_payload(const char* row, void* state);
double ink_min_f64(double a, double b);
double ink_max_f64(double a, double b);
int32_t ink_min_i32(int32_t a, int32_t b);
int32_t ink_max_i32(int32_t a, int32_t b);
`
}

// batchablePrim reports whether f is one of the single-suboperator table
// primitives whose entire body is a table access over the input vector
// (optionally emitting the resolved group row). EmitC renders those as one
// chunk-batched kernel call — one hash pass and one shard-lock acquire per
// (chunk, shard) inside the runtime — instead of a per-row loop around a
// scalar hook. Fused multi-suboperator functions never match: their per-row
// data-centric loop is the point of fusion, and they reach the same batched
// runtime entry points through the closure backend regardless. Since only the
// rendering changes (same suboperator, same PrimitiveID, same state), the
// enumeration invariant is untouched.
func batchablePrim(f *Func) bool {
	if len(f.Ins) != 1 {
		return false
	}
	in := f.Ins[0]
	switch len(f.Body) {
	case 1:
		switch s := f.Body[0].(type) {
		case JoinInsert:
			return s.Row.ID == in.ID
		case Prefetch:
			return s.Row.ID == in.ID
		}
	case 2:
		em, ok := f.Body[1].(EmitStmt)
		if !ok || len(em.Cols) != 1 {
			return false
		}
		switch s := f.Body[0].(type) {
		case AggLookup:
			return s.Row.ID == in.ID && em.Cols[0].ID == s.Dst.ID
		case AggLookupFixed:
			return s.Key.ID == in.ID && em.Cols[0].ID == s.Dst.ID
		}
	}
	return false
}

// cBatched renders the chunk-batched form of a batchablePrim body: the
// runtime kernel hashes the whole vector and takes each shard lock once per
// (chunk, shard).
func (e *cemitter) cBatched(f *Func) {
	switch s := f.Body[0].(type) {
	case AggLookup:
		e.line("/* chunk-batched: one hash pass, one shard-lock acquire per (chunk, shard) */")
		e.line("char** groups = ink_agg_find_or_create_batch(((ink_agg_state_t*)state[%d])->table, (char**)in[0]->data, n);", s.StateID)
		e.line("for (int64_t i = 0; i < n; ++i) {")
		e.indent++
		e.line("((char**)out->cols[0]->data)[out->rows] = groups[i];")
		e.line("out->rows++;")
		e.indent--
		e.line("}")
	case AggLookupFixed:
		e.line("/* chunk-batched single-column key fast path */")
		e.line("char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[%d])->table, (%s*)in[0]->data, n);",
			s.StateID, s.Key.K.CName())
		e.line("for (int64_t i = 0; i < n; ++i) {")
		e.indent++
		e.line("((char**)out->cols[0]->data)[out->rows] = groups[i];")
		e.line("out->rows++;")
		e.indent--
		e.line("}")
	case JoinInsert:
		e.line("/* chunk-batched build: one shard-lock acquire per (chunk, shard) */")
		e.line("ink_join_insert_batch(((ink_join_state_t*)state[%d])->table, (char**)in[0]->data, n);", s.StateID)
	case Prefetch:
		e.line("/* chunk-batched ROF staging: bloom-filtered bucket touches */")
		e.line("ink_join_prefetch_batch(((ink_join_state_t*)state[%d])->table, (char**)in[0]->data, n);", s.StateID)
	}
}

type cemitter struct {
	w      *strings.Builder
	indent int
}

func (e *cemitter) line(format string, args ...any) {
	for i := 0; i < e.indent; i++ {
		e.w.WriteString("  ")
	}
	fmt.Fprintf(e.w, format, args...)
	e.w.WriteByte('\n')
}

func (e *cemitter) stmts(list []Stmt) {
	for _, s := range list {
		e.stmt(s)
	}
}

// stmt renders one IR statement as generated C.
//
//inklint:dispatch ir.Stmt
func (e *cemitter) stmt(s Stmt) {
	switch s := s.(type) {
	case Assign:
		e.line("%s %s = %s;", s.Dst.K.CName(), s.Dst, e.expr(s.E))
	case FilterStmt:
		e.line("if (%s) {", s.Cond)
		e.indent++
		for _, c := range s.Copies {
			e.line("%s %s = %s;", c.Dst.K.CName(), c.Dst, c.Src)
		}
		e.stmts(s.Body)
		e.indent--
		e.line("}")
	case MakeRow:
		e.line("char* %s = ink_make_row(state[%d], i);", s.Dst, s.StateID)
	case PackFixed:
		e.line("*(%s*)(%s + 4 + ((ink_offset_t*)state[%d])->off%s) = %s;",
			s.Val.Kind().CName(), s.Row, s.StateID, payloadBase(s.Region, s.Row), e.expr(s.Val))
		e.line("char* %s = %s;", s.Dst, s.Row)
	case PackStr:
		e.line("char* %s = ink_append_str(%s, state[%d], %s);", s.Dst, s.Row, s.StateID, e.expr(s.Val))
	case SealKey:
		e.line("char* %s = ink_seal_key(state[%d], %s);", s.Dst, s.StateID, s.Row)
	case AggLookup:
		e.line("char* %s = ink_agg_find_or_create(((ink_agg_state_t*)state[%d])->table, ink_row_key(%s), ink_hash(ink_row_key(%s)));",
			s.Dst, s.StateID, s.Row, s.Row)
	case AggLookupFixed:
		e.line("char* %s = ink_agg_find_or_create_direct(((ink_agg_state_t*)state[%d])->table, &%s); // single-column key fast path",
			s.Dst, s.StateID, s.Key)
	case AggUpdate:
		off := fmt.Sprintf("%s + ink_payload_off(%s) + ((ink_offset_t*)state[%d])->off", s.Group, s.Group, s.StateID)
		switch s.Fn {
		case AggSumI64:
			e.line("*(int64_t*)(%s) += %s;", off, e.expr(s.Val))
		case AggSumF64:
			e.line("*(double*)(%s) += %s;", off, e.expr(s.Val))
		case AggCount:
			e.line("*(int64_t*)(%s) += 1;", off)
		case AggCountIf:
			e.line("*(int64_t*)(%s) += %s ? 1 : 0;", off, e.expr(s.Val))
		case AggMinF64:
			e.line("*(double*)(%s) = ink_min_f64(*(double*)(%s), %s);", off, off, e.expr(s.Val))
		case AggMaxF64:
			e.line("*(double*)(%s) = ink_max_f64(*(double*)(%s), %s);", off, off, e.expr(s.Val))
		case AggMinI32:
			e.line("*(int32_t*)(%s) = ink_min_i32(*(int32_t*)(%s), %s);", off, off, e.expr(s.Val))
		case AggMaxI32:
			e.line("*(int32_t*)(%s) = ink_max_i32(*(int32_t*)(%s), %s);", off, off, e.expr(s.Val))
		}
	case JoinInsert:
		e.line("ink_join_insert(((ink_join_state_t*)state[%d])->table, %s, ink_hash(ink_row_key(%s)));",
			s.StateID, s.Row, s.Row)
	case ProbeStmt:
		switch s.Mode {
		case InnerJoin:
			e.line("ink_match_iter_t it_%s = ink_join_lookup(((ink_join_state_t*)state[%d])->table, ink_row_key(%s));",
				s.Build, s.StateID, s.ProbeRow)
			e.line("for (char* %s = ink_match_next(&it_%s); %s; %s = ink_match_next(&it_%s)) {",
				s.Build, s.Build, s.Build, s.Build, s.Build)
			e.indent++
			e.line("char* %s = %s;", s.Probe, s.ProbeRow)
			e.stmts(s.Body)
			e.indent--
			e.line("}")
		case SemiJoin:
			e.line("if (ink_join_exists(((ink_join_state_t*)state[%d])->table, ink_row_key(%s))) {",
				s.StateID, s.ProbeRow)
			e.indent++
			e.line("char* %s = %s;", s.Probe, s.ProbeRow)
			e.stmts(s.Body)
			e.indent--
			e.line("}")
		case AntiJoin:
			e.line("if (!ink_join_exists(((ink_join_state_t*)state[%d])->table, ink_row_key(%s))) {",
				s.StateID, s.ProbeRow)
			e.indent++
			e.line("char* %s = %s;", s.Probe, s.ProbeRow)
			e.stmts(s.Body)
			e.indent--
			e.line("}")
		case LeftOuterJoin:
			e.line("ink_match_iter_t it_%s = ink_join_lookup(((ink_join_state_t*)state[%d])->table, ink_row_key(%s));",
				s.Build, s.StateID, s.ProbeRow)
			e.line("bool %s = false;", s.Matched)
			e.line("for (char* %s = ink_match_next(&it_%s); %s; %s = ink_match_next(&it_%s)) {",
				s.Build, s.Build, s.Build, s.Build, s.Build)
			e.indent++
			e.line("%s = true;", s.Matched)
			e.line("char* %s = %s;", s.Probe, s.ProbeRow)
			e.stmts(s.Body)
			e.indent--
			e.line("}")
			e.line("if (!%s) { // unmatched probe tuple", s.Matched)
			e.indent++
			e.line("char* %s = 0;", s.Build)
			e.line("char* %s = %s;", s.Probe, s.ProbeRow)
			e.stmts(s.Body)
			e.indent--
			e.line("}")
		}
	case Prefetch:
		e.line("ink_join_prefetch(((ink_join_state_t*)state[%d])->table, ink_row_key(%s)); // __builtin_prefetch",
			s.StateID, s.Row)
	case EmitStmt:
		for i, v := range s.Cols {
			e.line("((%s*)out->cols[%d]->data)[out->rows] = %s;", v.K.CName(), i, v)
		}
		e.line("out->rows++;")
	case Copy:
		e.line("%s %s = %s;", s.Dst.K.CName(), s.Dst, s.Src)
	default:
		e.line("/* unknown stmt %T */", s)
	}
}

func payloadBase(r Region, row Var) string {
	if r == PayloadRegion {
		return fmt.Sprintf(" + ink_row_key_len(%s)", row)
	}
	return ""
}

// expr renders one IR expression as a generated-C expression.
//
//inklint:dispatch ir.Expr
func (e *cemitter) expr(x Expr) string {
	switch x := x.(type) {
	case VarRef:
		return x.V.String()
	case ConstRef:
		return fmt.Sprintf("((ink_const_t*)state[%d])->%s", x.StateID, cConstField(x.K))
	case BinExpr:
		return fmt.Sprintf("(%s %s %s)", e.expr(x.L), x.Op.CSym(), e.expr(x.R))
	case CmpExpr:
		if x.L.Kind() == types.String {
			return fmt.Sprintf("(ink_strcmp(%s, %s) %s 0)", e.expr(x.L), e.expr(x.R), x.Op.CSym())
		}
		return fmt.Sprintf("(%s %s %s)", e.expr(x.L), x.Op.CSym(), e.expr(x.R))
	case LogicExpr:
		return fmt.Sprintf("(%s %s %s)", e.expr(x.L), x.Op.CSym(), e.expr(x.R))
	case NotExpr:
		return fmt.Sprintf("(!%s)", e.expr(x.E))
	case CastExpr:
		return fmt.Sprintf("((%s)%s)", x.To.CName(), e.expr(x.E))
	case LikeExpr:
		neg := ""
		if x.Negate {
			neg = "!"
		}
		return fmt.Sprintf("%sink_like(((ink_like_state_t*)state[%d])->m, %s)", neg, x.StateID, e.expr(x.S))
	case InListExpr:
		return fmt.Sprintf("ink_in_list(((ink_inlist_state_t*)state[%d])->set, %s)", x.StateID, e.expr(x.S))
	case StrLower:
		return fmt.Sprintf("ink_str_lower(%s)", e.expr(x.E))
	case CondExpr:
		return fmt.Sprintf("(%s ? %s : %s)", e.expr(x.Cond), e.expr(x.Then), e.expr(x.Else))
	case UnpackFixed:
		base := "4"
		if x.Region == PayloadRegion {
			base = fmt.Sprintf("ink_payload_off(%s)", e.expr(x.Row))
		}
		return fmt.Sprintf("*(%s*)(%s + %s + ((ink_offset_t*)state[%d])->off)",
			x.K.CName(), e.expr(x.Row), base, x.StateID)
	case UnpackStr:
		return fmt.Sprintf("ink_unpack_str_%s(%s, state[%d])", x.Region, e.expr(x.Row), x.StateID)
	default:
		return fmt.Sprintf("/* unknown expr %T */", x)
	}
}

func cConstField(k types.Kind) string {
	switch k {
	case types.Bool:
		return "b"
	case types.Int32, types.Date:
		return "i32"
	case types.Int64:
		return "i64"
	case types.Float64:
		return "f64"
	case types.String:
		return "str"
	default:
		return "invalid"
	}
}
