package rt

import "inkfuse/internal/types"

// Suboperator runtime state objects (paper §IV-C, Fig 8). During query setup
// the engine allocates one state object per suboperator that needs one and
// wires the same objects into every execution backend, which is what makes
// it safe for the hybrid backend to switch between compiled code and
// pre-generated primitives mid-query: all persistent query state lives here.

// ConstState resolves a query constant (e.g. the 42 in `x + 42`).
type ConstState struct {
	Kind types.Kind
	B    bool
	I32  int32
	I64  int64
	F64  float64
	Str  string
}

// ConstBool builds a bool constant state.
func ConstBool(v bool) *ConstState { return &ConstState{Kind: types.Bool, B: v} }

// ConstI32 builds an int32 constant state (kind may be Int32 or Date).
func ConstI32(k types.Kind, v int32) *ConstState { return &ConstState{Kind: k, I32: v} }

// ConstI64 builds an int64 constant state.
func ConstI64(v int64) *ConstState { return &ConstState{Kind: types.Int64, I64: v} }

// ConstF64 builds a float64 constant state.
func ConstF64(v float64) *ConstState { return &ConstState{Kind: types.Float64, F64: v} }

// ConstStr builds a string constant state.
func ConstStr(v string) *ConstState { return &ConstState{Kind: types.String, Str: v} }

// RowLayoutState parameterizes the packed-row builders (MakeRow/Seal) of one
// key+payload packing chain. Per-worker RowScratch instances are keyed by the
// identity of this object.
type RowLayoutState struct {
	KeyFixed     int
	PayloadFixed int
}

// OffsetState resolves a byte offset inside a packed row (key packing and
// unpacking, aggregate slots). Offsets are runtime parameters so that the
// pack/unpack suboperators stay enumerable (paper §IV-D).
type OffsetState struct {
	Off    int
	Layout *RowLayoutState // set for pack statements; nil for unpack/agg slots
}

// VarSlotState resolves a variable-size (string) slot inside a packed row:
// the slot is the VarIdx-th length-prefixed string after FixedWidth fixed
// bytes of its region.
type VarSlotState struct {
	FixedWidth int
	VarIdx     int
}

// MergeOp combines one aggregate slot of two group rows when per-worker
// pre-aggregation tables are merged after a parallel build pipeline.
type MergeOp uint8

const (
	// MergeSumI64 adds int64 slots (SUM(int), COUNT, COUNT-IF).
	MergeSumI64 MergeOp = iota
	// MergeSumF64 adds float64 slots.
	MergeSumF64
	// MergeMinF64 / MergeMaxF64 / MergeMinI32 / MergeMaxI32 keep the extremum.
	MergeMinF64
	MergeMaxF64
	MergeMinI32
	MergeMaxI32
)

// AggMerge describes how to merge one aggregate slot.
type AggMerge struct {
	Op  MergeOp
	Off int // offset inside the payload region
}

// AggTableState wires an aggregation into the generated code. Workers create
// private pre-aggregation instances (morsel-driven parallel aggregation);
// the scheduler merges them into Global when the build pipeline finishes.
type AggTableState struct {
	Init   []byte // payload template for new groups
	Shards int
	Merge  []AggMerge

	// SizeHint is the scheduler's cardinality estimate for one worker's share
	// of the build (morsel size clamped by the source row count). NewInstance
	// pre-sizes the shard bucket arrays from it so the batched path never
	// resizes while holding a shard lock mid-chunk.
	SizeHint int

	Global *AggTable // set by the scheduler after merging
}

// Reset drops the merged result and the per-run size hint, making the owning
// plan reusable for another execution.
func (s *AggTableState) Reset() {
	s.Global = nil
	s.SizeHint = 0
}

// NewInstance creates a fresh table for one worker.
func (s *AggTableState) NewInstance() *AggTable {
	t := NewAggTable(s.Init, s.Shards)
	// Pre-size before a budget is attached: like the initial bucket arrays,
	// the estimate-driven capacity is uncharged; only demand growth is.
	t.Reserve(s.SizeHint)
	return t
}

// MergeInto folds all groups of src into dst using the merge spec. Creation
// extras beyond the init template (preserved original key strings, §IV-D
// collations) are carried over from the source group.
func (s *AggTableState) MergeInto(dst, src *AggTable) {
	for _, row := range src.Snapshot() {
		key := RowKey(row)
		seed := row[RowPayloadOff(row)+len(s.Init):]
		drow := dst.FindOrCreateSeed(key, Hash64(key), seed)
		s.mergePayload(drow, row)
	}
}

// mergePayload folds one source group row's aggregate slots into dst's.
//
//inkfuse:hotpath
func (s *AggTableState) mergePayload(drow, row []byte) {
	dOff := RowPayloadOff(drow)
	sOff := RowPayloadOff(row)
	for _, m := range s.Merge {
		do, so := dOff+m.Off, sOff+m.Off
		switch m.Op {
		case MergeSumI64:
			PutI64(drow, do, GetI64(drow, do)+GetI64(row, so))
		case MergeSumF64:
			PutF64(drow, do, GetF64(drow, do)+GetF64(row, so))
		case MergeMinF64:
			PutF64(drow, do, min(GetF64(drow, do), GetF64(row, so)))
		case MergeMaxF64:
			PutF64(drow, do, max(GetF64(drow, do), GetF64(row, so)))
		case MergeMinI32:
			PutI32(drow, do, min(GetI32(drow, do), GetI32(row, so)))
		case MergeMaxI32:
			PutI32(drow, do, max(GetI32(drow, do), GetI32(row, so)))
		}
	}
}

// JoinTableState wires a join hash table into the generated code.
type JoinTableState struct {
	Table *JoinTable
}

// Reset replaces the sealed table with a fresh empty one of the same shard
// layout, making the owning plan reusable for another execution.
func (s *JoinTableState) Reset() {
	s.Table = NewJoinTable(s.Table.ShardCount())
}

// LikeState wires a compiled LIKE matcher into the generated code.
type LikeState struct {
	M *LikeMatcher
}

// InListState wires a set of strings for IN (...) predicates.
type InListState struct {
	Set map[string]bool
}

// NewInList builds an InListState from the member strings.
func NewInList(members ...string) *InListState {
	s := &InListState{Set: make(map[string]bool, len(members))}
	for _, m := range members {
		s.Set[m] = true
	}
	return s
}
