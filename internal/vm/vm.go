// Package vm compiles the suboperator IR into executable closure programs —
// the Go stand-in for InkFuse's clang-compiled C (DESIGN.md §2).
//
// A Program executes one step over dense batch registers: every IR variable
// becomes a typed vector; fused programs carry tuples through those
// registers across suboperator boundaries without materializing tuple
// buffers, while the pre-generated vectorized primitives are single-subop
// Programs invoked chunk-at-a-time by internal/interp. Filter scopes compact
// and probe scopes expand, so vectors are always dense (paper §IV-B).
package vm

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// Ctx is one worker's execution context: per-worker scratch space, frames,
// pre-aggregation tables and counters. A Ctx is not safe for concurrent use;
// the scheduler gives each worker its own.
type Ctx struct {
	// Counters accumulates this worker's statistics.
	Counters stats.Counters
	// Budget, when non-nil, caps the runtime-state bytes this query may
	// allocate; worker-private tables created through this Ctx charge to it.
	Budget *rt.MemBudget

	scratch map[*rt.RowLayoutState]*rt.RowScratch
	aggs    map[*rt.AggTableState]*rt.AggTable
	locals  map[*rt.AggTableState]*rt.LocalAggTable
	frames  map[*Program]*frame
}

// NewCtx creates an execution context.
func NewCtx() *Ctx {
	return &Ctx{
		scratch: make(map[*rt.RowLayoutState]*rt.RowScratch),
		aggs:    make(map[*rt.AggTableState]*rt.AggTable),
		locals:  make(map[*rt.AggTableState]*rt.LocalAggTable),
		frames:  make(map[*Program]*frame),
	}
}

// Scratch returns this worker's packed-row scratch for a layout.
func (c *Ctx) Scratch(st *rt.RowLayoutState) *rt.RowScratch {
	s, ok := c.scratch[st]
	if !ok {
		s = rt.NewRowScratch(st.KeyFixed, st.PayloadFixed)
		c.scratch[st] = s
	}
	return s
}

// AggTable returns this worker's pre-aggregation table for an aggregation
// state (morsel-driven parallel aggregation; merged by the scheduler).
func (c *Ctx) AggTable(st *rt.AggTableState) *rt.AggTable {
	t, ok := c.aggs[st]
	if !ok {
		t = st.NewInstance()
		t.SetBudget(c.Budget)
		c.aggs[st] = t
	}
	return t
}

// LocalAgg returns this worker's bounded thread-local pre-aggregation table
// for an aggregation state, backed by the worker's sharded table.
func (c *Ctx) LocalAgg(st *rt.AggTableState) *rt.LocalAggTable {
	l, ok := c.locals[st]
	if !ok {
		l = rt.NewLocalAggTable(st, c.AggTable(st))
		c.locals[st] = l
	}
	return l
}

// FlushLocalAggs spills every thread-local pre-aggregation table into its
// backing sharded table. The scheduler calls it at every morsel boundary —
// local group rows must not live across morsels — so the off path (pipelines
// without aggregation) is a single empty-map check.
func (c *Ctx) FlushLocalAggs() {
	if len(c.locals) == 0 {
		return
	}
	for _, l := range c.locals {
		c.Counters.HTSpills += l.Flush()
	}
}

// TakeAggTables hands the worker's pre-aggregation tables to the scheduler
// for merging and resets them for the next pipeline. Thread-local tables are
// flushed first so no group is left behind, and dropped with the tables they
// back.
func (c *Ctx) TakeAggTables() map[*rt.AggTableState]*rt.AggTable {
	c.FlushLocalAggs()
	if len(c.locals) > 0 {
		c.locals = make(map[*rt.AggTableState]*rt.LocalAggTable)
	}
	out := c.aggs
	c.aggs = make(map[*rt.AggTableState]*rt.AggTable)
	return out
}

// exec is one compiled operation, executed at the current scope cardinality.
type exec func(fr *frame, n int)

// Program is the compiled form of an ir.Func.
type Program struct {
	Fn *ir.Func

	body      []exec
	slotKinds []types.Kind
	insSlots  []int
	numAux    int
}

// frame is the per-worker register file for one program.
type frame struct {
	ctx     *Ctx
	state   []any
	vecs    []*storage.Vector
	aux     []any
	out     *storage.Chunk
	emitted int

	// prefetchSink keeps ROF prefetch loads observable (never read).
	prefetchSink byte
}

//inkfuse:hotpath
func (c *Ctx) frame(p *Program) *frame {
	fr, ok := c.frames[p] //inklint:allow map — per-(ctx,program) frame memo — one lookup per morsel call, not per row
	if !ok {
		fr = &frame{ctx: c, vecs: make([]*storage.Vector, len(p.slotKinds)), aux: make([]any, p.numAux)} //inklint:allow alloc — first-use frame construction; memoized in c.frames thereafter
		for i, k := range p.slotKinds {
			fr.vecs[i] = storage.NewVector(k, 0) //inklint:allow call — first-use slot vector construction; memoized with the frame
		}
		c.frames[p] = fr //inklint:allow map — memoization write on first use only
	}
	return fr
}

// Run executes the program over n source rows bound to the input vectors,
// appending emitted rows to out (which may be nil for pure sinks). It
// returns the number of emitted rows.
//
//inkfuse:hotpath
func (p *Program) Run(ctx *Ctx, state []any, ins []*storage.Vector, n int, out *storage.Chunk) int {
	fr := ctx.frame(p)
	fr.state = state
	fr.out = out
	fr.emitted = 0
	if len(ins) != len(p.insSlots) {
		panic(fmt.Sprintf("vm: program %s wants %d inputs, got %d", p.Fn.Name, len(p.insSlots), len(ins)))
	}
	for i, v := range ins {
		fr.vecs[p.insSlots[i]] = v
	}
	runBlock(p.body, fr, n)
	return fr.emitted
}

//inkfuse:hotpath
func runBlock(b []exec, fr *frame, n int) {
	for _, op := range b {
		op(fr, n) //inklint:allow call — the vm execution model — dispatch through pre-compiled closures
	}
}

// auxSlice returns the k-th auxiliary buffer's pointer box, creating it on
// first use. Aux slots hold *[]T rather than []T: callers mutate the slice
// through the pointer, so steady-state primitive calls never re-box a slice
// header into the `any` slot — re-boxing would allocate on every invocation,
// which is exactly the per-chunk overhead the interpreter must not have.
func auxSlice[T any](fr *frame, k int) *[]T {
	if fr.aux[k] == nil {
		fr.aux[k] = new([]T)
	}
	return fr.aux[k].(*[]T)
}

// auxSel returns the k-th auxiliary int32 selection buffer, reset to length
// zero; write the grown slice back through putAuxSel.
func (fr *frame) auxSel(k int) []int32 {
	return (*auxSlice[int32](fr, k))[:0]
}

func (fr *frame) putAuxSel(k int, s []int32) { *auxSlice[int32](fr, k) = s }

// auxRows returns the k-th auxiliary row buffer, reset to length zero.
func (fr *frame) auxRows(k int) [][]byte {
	return (*auxSlice[[]byte](fr, k))[:0]
}

func (fr *frame) putAuxRows(k int, s [][]byte) { *auxSlice[[]byte](fr, k) = s }

// Compile translates an IR function into an executable program.
func Compile(f *ir.Func) (*Program, error) {
	c := &compiler{
		p:      &Program{Fn: f},
		slotOf: make(map[int]int),
	}
	for _, v := range f.Ins {
		c.p.insSlots = append(c.p.insSlots, c.bind(v))
	}
	body, err := c.block(f.Body)
	if err != nil {
		return nil, fmt.Errorf("vm: compiling %s: %w", f.Name, err)
	}
	c.p.body = body
	return c.p, nil
}

// MustCompile is Compile that panics; used for the startup-generated
// primitives whose IR the engine itself produced.
func MustCompile(f *ir.Func) *Program {
	p, err := Compile(f)
	if err != nil {
		panic(err)
	}
	return p
}

type compiler struct {
	p      *Program
	slotOf map[int]int // ir var ID -> slot
}

// bind allocates (or returns) the slot for an IR variable.
func (c *compiler) bind(v ir.Var) int {
	if s, ok := c.slotOf[v.ID]; ok {
		return s
	}
	s := c.newSlot(v.K)
	c.slotOf[v.ID] = s
	return s
}

func (c *compiler) newSlot(k types.Kind) int {
	c.p.slotKinds = append(c.p.slotKinds, k)
	return len(c.p.slotKinds) - 1
}

func (c *compiler) newAux() int {
	c.p.numAux++
	return c.p.numAux - 1
}

func (c *compiler) slot(v ir.Var) (int, error) {
	s, ok := c.slotOf[v.ID]
	if !ok {
		return 0, fmt.Errorf("use of unbound var %s", v)
	}
	return s, nil
}
