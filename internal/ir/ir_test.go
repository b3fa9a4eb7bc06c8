package ir

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"inkfuse/internal/types"
)

// GetF64Test reads a little-endian float64 (local helper; the real readers
// live in internal/rt, which ir must not import).
func GetF64Test(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func sampleFunc() *Func {
	a := Var{ID: 1, K: types.Int64, Name: "a"}
	b := Var{ID: 2, K: types.Int64, Name: "b"}
	sum := Var{ID: 3, K: types.Int64, Name: "sum"}
	cond := Var{ID: 4, K: types.Bool, Name: "cond"}
	inner := Var{ID: 5, K: types.Int64, Name: "inner"}
	return &Func{
		Name: "sample",
		Ins:  []Var{a, b},
		Body: []Stmt{
			Assign{Dst: sum, E: BinExpr{Op: Add, L: Ref(a), R: Ref(b)}},
			Assign{Dst: cond, E: CmpExpr{Op: Gt, L: Ref(sum), R: ConstRef{StateID: 0, K: types.Int64}}},
			FilterStmt{Cond: cond, Copies: []Copy{{Dst: inner, Src: sum}},
				Body: []Stmt{EmitStmt{Cols: []Var{inner}}}},
		},
		OutKinds:  []types.Kind{types.Int64},
		NumStates: 1,
	}
}

func TestEmitCStructure(t *testing.T) {
	c := EmitC(sampleFunc())
	for _, want := range []string{
		"void sample(",
		"for (int64_t i = 0; i < n; ++i)",
		"(a_1 + b_2)",
		"((ink_const_t*)state[0])->i64",
		"if (cond_",
		"out->rows++;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("EmitC missing %q in:\n%s", want, c)
		}
	}
	// Balanced braces.
	if strings.Count(c, "{") != strings.Count(c, "}") {
		t.Fatalf("unbalanced braces:\n%s", c)
	}
}

func TestEmitCProbeModes(t *testing.T) {
	row := Var{ID: 1, K: types.Ptr, Name: "row"}
	build := Var{ID: 2, K: types.Ptr, Name: "b"}
	probe := Var{ID: 3, K: types.Ptr, Name: "p"}
	matched := Var{ID: 4, K: types.Bool, Name: "m"}
	for _, mode := range []JoinMode{InnerJoin, SemiJoin, LeftOuterJoin} {
		f := &Func{Name: "probe", Ins: []Var{row}, Body: []Stmt{
			ProbeStmt{StateID: 0, Mode: mode, ProbeRow: row, Build: build, Probe: probe, Matched: matched,
				Body: []Stmt{EmitStmt{Cols: []Var{probe}}}},
		}}
		c := EmitC(f)
		if strings.Count(c, "{") != strings.Count(c, "}") {
			t.Fatalf("%v: unbalanced braces:\n%s", mode, c)
		}
		switch mode {
		case SemiJoin:
			if !strings.Contains(c, "ink_join_exists") {
				t.Fatalf("semi emit:\n%s", c)
			}
		case LeftOuterJoin:
			if !strings.Contains(c, "unmatched probe tuple") {
				t.Fatalf("outer emit:\n%s", c)
			}
		default:
			if !strings.Contains(c, "ink_match_next") {
				t.Fatalf("inner emit:\n%s", c)
			}
		}
	}
}

func TestEmitCAggAndPack(t *testing.T) {
	k := Var{ID: 1, K: types.Int64, Name: "k"}
	v := Var{ID: 2, K: types.Float64, Name: "v"}
	r0 := Var{ID: 3, K: types.Ptr, Name: "r0"}
	r1 := Var{ID: 4, K: types.Ptr, Name: "r1"}
	r2 := Var{ID: 5, K: types.Ptr, Name: "r2"}
	g := Var{ID: 6, K: types.Ptr, Name: "g"}
	f := &Func{Name: "agg", Ins: []Var{k, v}, Body: []Stmt{
		MakeRow{Dst: r0, StateID: 0},
		PackFixed{Dst: r1, Row: r0, Region: KeyRegion, StateID: 1, Val: Ref(k)},
		SealKey{Dst: r2, Row: r1, StateID: 0},
		AggLookup{Dst: g, Row: r2, StateID: 2},
		AggUpdate{Group: g, Fn: AggSumF64, StateID: 3, Val: Ref(v)},
		AggUpdate{Group: g, Fn: AggCount, StateID: 4},
		AggUpdate{Group: g, Fn: AggMinF64, StateID: 5, Val: Ref(v)},
	}, NumStates: 6}
	c := EmitC(f)
	for _, want := range []string{"ink_make_row", "ink_seal_key", "ink_agg_find_or_create", "+= v_2", "+= 1", "ink_min_f64"} {
		if !strings.Contains(c, want) {
			t.Errorf("missing %q in:\n%s", want, c)
		}
	}
}

func TestSizeMonotonic(t *testing.T) {
	small := &Func{Name: "s", Body: []Stmt{}}
	if Size(sampleFunc()) <= Size(small) {
		t.Fatal("size not monotonic with content")
	}
}

func TestSizeCoversAllNodes(t *testing.T) {
	row := Var{ID: 1, K: types.Ptr}
	exprs := []Expr{
		Ref(row), ConstRef{K: types.Int64},
		BinExpr{Op: Mul, L: ConstRef{K: types.Float64}, R: ConstRef{K: types.Float64}},
		CmpExpr{Op: Eq, L: ConstRef{K: types.Int64}, R: ConstRef{K: types.Int64}},
		LogicExpr{Op: Or, L: ConstRef{K: types.Bool}, R: ConstRef{K: types.Bool}},
		NotExpr{E: ConstRef{K: types.Bool}},
		CastExpr{To: types.Int64, E: ConstRef{K: types.Int32}},
		LikeExpr{S: ConstRef{K: types.String}},
		InListExpr{S: ConstRef{K: types.String}},
		CondExpr{Cond: ConstRef{K: types.Bool}, Then: ConstRef{K: types.Int64}, Else: ConstRef{K: types.Int64}},
		UnpackFixed{Row: Ref(row), K: types.Int64},
		UnpackStr{Row: Ref(row)},
	}
	for _, e := range exprs {
		if sizeExpr(e) < 1 {
			t.Errorf("expr %T has zero size", e)
		}
	}
	stmts := []Stmt{
		Assign{Dst: row, E: Ref(row)},
		Copy{Dst: row, Src: row},
		FilterStmt{}, MakeRow{}, PackFixed{Val: Ref(row)}, PackStr{Val: Ref(row)},
		SealKey{}, AggLookup{}, AggUpdate{}, JoinInsert{}, Prefetch{}, ProbeStmt{}, EmitStmt{},
	}
	for _, s := range stmts {
		if sizeStmt(s) < 1 {
			t.Errorf("stmt %T has zero size", s)
		}
	}
}

func TestAggFuncMetadata(t *testing.T) {
	if AggSumF64.ValueKind() != types.Float64 || AggCount.ValueKind() != types.Invalid {
		t.Fatal("value kinds wrong")
	}
	if AggMinI32.SlotWidth() != 4 || AggSumI64.SlotWidth() != 8 {
		t.Fatal("slot widths wrong")
	}
	slot := make([]byte, 8)
	AggMinF64.InitSlot(slot)
	if GetF64Test(slot) <= 1e308 {
		t.Fatal("min init should be +Inf")
	}
	AggSumF64.InitSlot(slot)
	if GetF64Test(slot) != 0 {
		t.Fatal("sum init should be 0")
	}
}

func TestOpStrings(t *testing.T) {
	if Add.CSym() != "+" || Ne.CSym() != "!=" || And.CSym() != "&&" {
		t.Fatal("C symbols wrong")
	}
	if Mul.String() != "mul" || Ge.String() != "ge" || Or.String() != "or" {
		t.Fatal("op names wrong")
	}
	if InnerJoin.String() != "inner" || LeftOuterJoin.String() != "leftouter" {
		t.Fatal("mode names wrong")
	}
	if KeyRegion.String() != "key" || PayloadRegion.String() != "payload" {
		t.Fatal("region names wrong")
	}
}

func TestVarValidity(t *testing.T) {
	var v Var
	if v.Valid() {
		t.Fatal("zero var should be invalid")
	}
	if (Var{ID: 1, K: types.Int64}).Valid() == false {
		t.Fatal("bound var should be valid")
	}
	if (Var{ID: 2, K: types.Bool, Name: "x"}).String() != "x_2" {
		t.Fatal("var string")
	}
	if (Var{ID: 3, K: types.Bool}).String() != "v3" {
		t.Fatal("anon var string")
	}
}

func TestVerifyAcceptsSample(t *testing.T) {
	if err := Verify(sampleFunc()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadFuncs(t *testing.T) {
	a := Var{ID: 1, K: 3 /* Int64 */, Name: "a"}
	cases := map[string]*Func{
		"undefined var": {Body: []Stmt{EmitStmt{Cols: []Var{a}}}},
		"double define": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: a, E: Ref(a)},
		}},
		"state out of range": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: Var{ID: 2, K: a.K}, E: BinExpr{Op: Add, L: Ref(a), R: ConstRef{StateID: 3, K: a.K}}},
		}},
		"kind mismatch assign": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: Var{ID: 2, K: 1 /* Bool */}, E: Ref(a)},
		}},
	}
	for name, f := range cases {
		if err := Verify(f); err == nil {
			t.Errorf("%s: Verify accepted a bad function", name)
		}
	}
}
