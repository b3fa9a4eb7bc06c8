// Package ir defines the structured imperative intermediate representation
// that the suboperator compilation stack generates (paper §V-A: "the
// compilation stack of an Incremental Fusion engine turns a DAG of
// suboperators into executable code").
//
// One IR, two consumers:
//   - internal/vm compiles it into an executable closure program (the
//     stand-in for InkFuse's clang-compiled C, see DESIGN.md §2);
//   - EmitC renders it as the C source InkFuse would generate (Figs 3/5/6;
//     cmd/primgen prints the whole interpreter), compiling against the
//     runtime interface EmitCPrelude declares.
//
// A Func is the code for one *step*: a loop over source rows whose body is a
// statement list. Nested scopes (filter, join probe) model cardinality
// changes; all vectors stay dense (paper §IV-B).
package ir

import (
	"fmt"

	"inkfuse/internal/types"
)

// Var is a typed value flowing through the step — an "IU" (information unit)
// materialized as a loop-local variable in emitted C and as a dense batch
// register in the VM.
type Var struct {
	ID   int
	K    types.Kind
	Name string
}

// Valid reports whether the var has been bound.
func (v Var) Valid() bool { return v.K != types.Invalid }

func (v Var) String() string {
	if v.Name != "" {
		return fmt.Sprintf("%s_%d", v.Name, v.ID)
	}
	return fmt.Sprintf("v%d", v.ID)
}

// BinOp is an arithmetic operator.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

func (o BinOp) String() string { return [...]string{"add", "sub", "mul", "div"}[o] }

// CSym returns the C operator token.
func (o BinOp) CSym() string { return [...]string{"+", "-", "*", "/"}[o] }

// CmpOp is a comparison operator.
type CmpOp uint8

const (
	Lt CmpOp = iota
	Le
	Eq
	Ne
	Ge
	Gt
)

func (o CmpOp) String() string { return [...]string{"lt", "le", "eq", "ne", "ge", "gt"}[o] }

// CSym returns the C operator token.
func (o CmpOp) CSym() string { return [...]string{"<", "<=", "==", "!=", ">=", ">"}[o] }

// LogicOp is a boolean connective.
type LogicOp uint8

const (
	And LogicOp = iota
	Or
)

func (o LogicOp) String() string { return [...]string{"and", "or"}[o] }

// CSym returns the C operator token.
func (o LogicOp) CSym() string { return [...]string{"&&", "||"}[o] }

// AggFunc identifies an aggregate-update function. The (function, type)
// combinations are finite, so aggregate-update suboperators satisfy the
// enumeration invariant (paper §IV-D).
type AggFunc uint8

const (
	AggSumI64 AggFunc = iota
	AggSumF64
	AggCount   // unconditional row count
	AggCountIf // counts rows whose bool argument is true (outer-join counting)
	AggMinF64
	AggMaxF64
	AggMinI32
	AggMaxI32
)

func (f AggFunc) String() string {
	return [...]string{"sum_i64", "sum_f64", "count", "count_if", "min_f64", "max_f64", "min_i32", "max_i32"}[f]
}

// ValueKind returns the kind of the aggregate's input argument.
func (f AggFunc) ValueKind() types.Kind {
	switch f {
	case AggSumI64:
		return types.Int64
	case AggSumF64, AggMinF64, AggMaxF64:
		return types.Float64
	case AggCountIf:
		return types.Bool
	case AggMinI32, AggMaxI32:
		return types.Int32
	default:
		return types.Invalid // AggCount takes no argument
	}
}

// SlotWidth returns the byte width of the aggregate's state slot.
func (f AggFunc) SlotWidth() int {
	switch f {
	case AggMinI32, AggMaxI32:
		return 4
	default:
		return 8
	}
}

// InitSlot writes the aggregate's initial state into slot.
func (f AggFunc) InitSlot(slot []byte) {
	switch f {
	case AggMinF64:
		putF64Raw(slot, posInf)
	case AggMaxF64:
		putF64Raw(slot, negInf)
	case AggMinI32:
		putI32Raw(slot, 1<<31-1)
	case AggMaxI32:
		putI32Raw(slot, -(1 << 31))
	default:
		for i := range slot {
			slot[i] = 0
		}
	}
}

// Region distinguishes the key blob from the payload of a packed row.
type Region uint8

const (
	// KeyRegion addresses the hashed/compared key blob of a packed row.
	KeyRegion Region = iota
	// PayloadRegion addresses the payload that follows the key blob.
	PayloadRegion
)

func (r Region) String() string { return [...]string{"key", "payload"}[r] }

// JoinMode selects join probe semantics.
type JoinMode uint8

const (
	// InnerJoin emits one row per (probe row, matching build row) pair.
	InnerJoin JoinMode = iota
	// SemiJoin emits each probe row at most once, if any build row matches.
	SemiJoin
	// LeftOuterJoin emits match pairs plus unmatched probe rows with a
	// false match marker (Q13-style outer joins, paper §VII "unmarked
	// tuples").
	LeftOuterJoin
	// AntiJoin emits each probe row exactly when no build row matches
	// (NOT EXISTS).
	AntiJoin
)

func (m JoinMode) String() string {
	return [...]string{"inner", "semi", "leftouter", "anti"}[m]
}
