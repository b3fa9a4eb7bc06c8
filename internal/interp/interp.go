// Package interp is the generated vectorized interpreter (paper §V-A). At
// engine startup it enumerates every suboperator instantiation, pushes each
// through the regular compilation stack wrapped between a tuple-buffer
// source and sink, and caches the resulting primitive. Interpreting a
// pipeline then means mapping each suboperator to its pre-generated
// primitive and invoking the primitives chunk-at-a-time over tuple buffers.
//
// As in InkFuse, the backend itself is tiny: it resolves suboperators to
// primitives and moves chunks — everything else was generated.
package interp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/vm"
)

// Registry is the primitive cache: every enumerable suboperator's compiled
// vectorized primitive, generated once at startup and shared by all queries
// and workers.
type Registry struct {
	progs map[string]*vm.Program
	funcs map[string]*ir.Func
}

var (
	defaultRegistry     *Registry
	defaultRegistryOnce sync.Once
	defaultRegistryErr  error
)

// Default returns the process-wide registry, generating it on first use
// ("the primitives are generated ... and loaded once when starting the
// database", paper §V-A).
func Default() (*Registry, error) {
	defaultRegistryOnce.Do(func() {
		defaultRegistry, defaultRegistryErr = NewRegistry()
	})
	return defaultRegistry, defaultRegistryErr
}

// NewRegistry enumerates all suboperators and generates their primitives.
func NewRegistry() (*Registry, error) {
	r := &Registry{
		progs: make(map[string]*vm.Program),
		funcs: make(map[string]*ir.Func),
	}
	for _, op := range core.Enumerate() {
		id := op.PrimitiveID()
		if _, dup := r.progs[id]; dup {
			return nil, fmt.Errorf("interp: duplicate primitive %q in enumeration", id)
		}
		f, err := core.BuildPrimitive(op)
		if err != nil {
			return nil, err
		}
		if err := ir.Verify(f); err != nil {
			return nil, fmt.Errorf("interp: primitive %q fails verification: %w", id, err)
		}
		p, err := vm.Compile(f)
		if err != nil {
			return nil, fmt.Errorf("interp: compiling primitive %q: %w", id, err)
		}
		r.progs[id] = p
		r.funcs[id] = f
	}
	return r, nil
}

// Get returns the primitive for an enumeration ID.
func (r *Registry) Get(id string) (*vm.Program, bool) {
	p, ok := r.progs[id]
	return p, ok
}

// Func returns the primitive's IR (cmd/primgen renders these as C).
func (r *Registry) Func(id string) (*ir.Func, bool) {
	f, ok := r.funcs[id]
	return f, ok
}

// Len returns the number of generated primitives.
func (r *Registry) Len() int { return len(r.progs) }

// IDs returns all primitive IDs (unordered).
func (r *Registry) IDs() []string {
	out := make([]string, 0, len(r.progs))
	for id := range r.progs {
		out = append(out, id)
	}
	return out
}

// GenerateC renders the complete generated interpreter as one C source file
// that begins with the runtime prelude; cmd/primgen prints it and the
// artifact drift test compares it against artifacts/interpreter.c.
func (r *Registry) GenerateC() string {
	ids := r.IDs()
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString(ir.EmitCPrelude())
	b.WriteString("\n/* The complete generated vectorized interpreter.\n")
	b.WriteString("   Every function below was produced by wrapping one enumerated\n")
	b.WriteString("   suboperator between a tuple-buffer source and sink and running\n")
	b.WriteString("   the engine's single compilation stack (paper §V-A). */\n")
	for _, id := range ids {
		b.WriteString("\n")
		b.WriteString(ir.EmitC(r.funcs[id]))
	}
	return b.String()
}

// compiledOp is one suboperator resolved to its primitive.
type compiledOp struct {
	id     string // the primitive's enumeration ID (profiler attribution)
	prog   *vm.Program
	states []any
	ins    []*core.IU
	outs   []*core.IU
	sink   bool
}

// SubOpSample is one suboperator's sampled profile attribution: how many
// chunks its primitive ran on, how many input tuples it saw, and the
// nanoseconds spent inside it.
type SubOpSample struct {
	ID     string
	Calls  int64
	Tuples int64
	Nanos  int64
}

// Profile is a per-Run (and therefore per-worker) sampling profiler over the
// suboperator primitives: every Every-th chunk is run through a timed step
// loop that attributes nanoseconds and tuples to each primitive. Between
// samples the interpreter takes its regular untimed path, so the steady-state
// cost of an enabled profiler is one counter increment and modulo per chunk —
// and with profiling off (Run.prof == nil) a single nil check per chunk.
//
// A Profile belongs to one Run: no locks, no atomics. Merge per-worker
// profiles with MergeProfiles.
type Profile struct {
	// Every is the sampling period in chunks (1 = profile every chunk).
	Every int
	// Chunks counts chunks seen; Sampled counts chunks profiled.
	Chunks  int64
	Sampled int64
	samples []SubOpSample // parallel to the Run's scan+ops sequence
}

// tick advances the chunk counter and reports whether to sample this chunk.
//
//inkfuse:hotpath
func (p *Profile) tick() bool {
	p.Chunks++
	if p.Chunks%int64(p.Every) != 0 {
		return false
	}
	p.Sampled++
	return true
}

// Samples returns the per-suboperator attributions in pipeline order
// (including suboperators that were never sampled, with zero counts).
func (p *Profile) Samples() []SubOpSample {
	return append([]SubOpSample{}, p.samples...)
}

// MergeProfiles folds per-worker profiles of the same suboperator sequence
// into one attribution list, preserving pipeline order. Profiles from
// different pipelines must not be mixed; nil entries are skipped.
func MergeProfiles(profs []*Profile) []SubOpSample {
	var out []SubOpSample
	for _, p := range profs {
		if p == nil {
			continue
		}
		if out == nil {
			out = p.Samples()
			continue
		}
		for i := range p.samples {
			if i >= len(out) {
				break
			}
			out[i].Calls += p.samples[i].Calls
			out[i].Tuples += p.samples[i].Tuples
			out[i].Nanos += p.samples[i].Nanos
		}
	}
	return out
}

// Run interprets one step (a suboperator sequence) for a single worker. It
// owns the per-IU tuple-buffer columns, so each worker builds its own Run
// from the shared registry.
type Run struct {
	reg    *Registry
	source []*core.IU
	scan   []compiledOp // tscan primitives materializing the source
	ops    []compiledOp
	emit   []*core.IU

	ws map[int]*storage.Vector // IU ID -> tuple-buffer column

	outChunks []*storage.Chunk // per op, wrapping its outs' vectors
	inVecs    [][]*storage.Vector
	emitVecs  []*storage.Vector // pre-wired emit columns (no per-chunk alloc)
	scanIn    []*storage.Vector // reusable 1-element scan input binding

	// prof is the optional sampling profiler (EnableProfile); nil costs one
	// branch per chunk.
	prof *Profile
}

// EnableProfile attaches a sampling profiler to this Run: every every-th
// chunk is timed per suboperator primitive. Returns the profile for later
// collection. every <= 0 defaults to DefaultProfileEvery.
func (r *Run) EnableProfile(every int) *Profile {
	if every <= 0 {
		every = DefaultProfileEvery
	}
	p := &Profile{Every: every, samples: make([]SubOpSample, len(r.scan)+len(r.ops))}
	for i, co := range r.scan {
		p.samples[i].ID = co.id
	}
	for i, co := range r.ops {
		p.samples[len(r.scan)+i].ID = co.id
	}
	r.prof = p
	return p
}

// DefaultProfileEvery is the default suboperator-profiler sampling period:
// one in every 8 chunks is timed (~12% of chunks carry the timestamp cost,
// attribution stays statistically stable even for short pipelines).
const DefaultProfileEvery = 8

// NewRun prepares a per-worker interpreter for the given suboperator
// sequence. Every suboperator must have a pre-generated primitive — the
// enumeration invariant guarantees it; a miss is reported as an error.
func NewRun(reg *Registry, source []*core.IU, ops []core.SubOp, emit []*core.IU) (*Run, error) {
	r := &Run{reg: reg, source: source, emit: emit, ws: make(map[int]*storage.Vector)}
	for _, iu := range source {
		r.ws[iu.ID] = storage.NewVector(iu.K, 0)
		scan := &core.ScanCol{Src: iu, Dst: iu}
		p, ok := reg.Get(scan.PrimitiveID())
		if !ok {
			return nil, fmt.Errorf("interp: no scan primitive for kind %v", iu.K)
		}
		r.scan = append(r.scan, compiledOp{id: scan.PrimitiveID(), prog: p, ins: []*core.IU{iu}, outs: []*core.IU{iu}})
	}
	for _, op := range ops {
		if _, isScope := op.(*core.FilterScope); isScope {
			// The branch is fused into the filter-copy primitives.
			continue
		}
		id := op.PrimitiveID()
		p, ok := reg.Get(id)
		if !ok {
			return nil, fmt.Errorf("interp: suboperator %q has no pre-generated primitive (enumeration invariant violated)", id)
		}
		co := compiledOp{id: id, prog: p, states: op.States(), ins: op.Inputs(), outs: op.Outputs(), sink: len(op.Outputs()) == 0}
		for _, iu := range co.outs {
			if _, ok := r.ws[iu.ID]; !ok {
				r.ws[iu.ID] = storage.NewVector(iu.K, 0)
			}
		}
		r.ops = append(r.ops, co)
	}
	// Pre-wire input/output vector lists and output chunks.
	all := append(append([]compiledOp{}, r.scan...), r.ops...)
	for i := range all {
		co := &all[i]
		var ins []*storage.Vector
		for _, iu := range co.ins {
			v, ok := r.ws[iu.ID]
			if !ok {
				return nil, fmt.Errorf("interp: %s consumes unmaterialized IU %s", co.prog.Fn.Name, iu)
			}
			ins = append(ins, v)
		}
		r.inVecs = append(r.inVecs, ins)
		var chunk *storage.Chunk
		if !co.sink {
			cols := make([]*storage.Vector, len(co.outs))
			for j, iu := range co.outs {
				cols[j] = r.ws[iu.ID]
			}
			chunk = &storage.Chunk{Cols: cols}
		}
		r.outChunks = append(r.outChunks, chunk)
	}
	r.scan = all[:len(r.scan)]
	r.ops = all[len(r.scan):]
	// Pre-wire the emit column list: the ws vectors are stable pointers, so
	// the per-chunk emit tail reads them without allocating.
	r.emitVecs = make([]*storage.Vector, len(r.emit))
	for i, iu := range r.emit {
		r.emitVecs[i] = r.ws[iu.ID]
	}
	r.scanIn = make([]*storage.Vector, 1)
	return r, nil
}

// RunChunk pushes one source chunk through the step. srcVecs are bound to
// the source IUs (base-table column slices or hash-table row vectors); out
// receives the emitted columns (may be nil for pure sinks). Returns emitted
// rows.
//
//inkfuse:hotpath
func (r *Run) RunChunk(ctx *vm.Ctx, srcVecs []*storage.Vector, n int, out *storage.Chunk) int {
	// The profiler off-path is this single nil check; an enabled profiler
	// adds a counter/modulo between samples.
	if p := r.prof; p != nil && p.tick() {
		r.runStepsProfiled(ctx, srcVecs, n)
	} else {
		r.runSteps(ctx, srcVecs, n)
	}
	if len(r.emit) == 0 || out == nil {
		return 0
	}
	en := 0
	for _, v := range r.emitVecs {
		en = v.Len()
	}
	bytes := out.AppendFromVectors(r.emitVecs, en)
	ctx.Counters.MaterializedBytes += bytes
	ctx.Counters.EmittedRows += int64(en)
	return en
}

// runSteps pushes the chunk through the scan and suboperator primitives —
// the untimed hot path.
//
//inkfuse:hotpath
func (r *Run) runSteps(ctx *vm.Ctx, srcVecs []*storage.Vector, n int) {
	// Materialize the source into the first tuple buffer via the generated
	// scan primitives (paper Fig 3, step 1).
	for i, co := range r.scan {
		r.outChunks[i].Reset()
		r.scanIn[0] = srcVecs[i]
		co.prog.Run(ctx, co.states, r.scanIn, n, r.outChunks[i])
		ctx.Counters.PrimitiveCalls++
	}
	base := len(r.scan)
	for i, co := range r.ops {
		ins := r.inVecs[base+i]
		// The chunk's current cardinality is carried by the primitive's
		// first input column (dense-chunk model).
		cn := n
		if len(ins) > 0 {
			cn = ins[0].Len()
		}
		chunk := r.outChunks[base+i]
		if chunk != nil {
			chunk.Reset()
		}
		co.prog.Run(ctx, co.states, ins, cn, chunk)
		ctx.Counters.PrimitiveCalls++
	}
}

// runStepsProfiled is runSteps with per-primitive timing, attributing
// nanoseconds and input tuples to each suboperator's sample slot.
//
//inkfuse:hotpath
func (r *Run) runStepsProfiled(ctx *vm.Ctx, srcVecs []*storage.Vector, n int) {
	p := r.prof
	for i, co := range r.scan {
		r.outChunks[i].Reset()
		r.scanIn[0] = srcVecs[i]
		t0 := time.Now()
		co.prog.Run(ctx, co.states, r.scanIn, n, r.outChunks[i])
		s := &p.samples[i]
		s.Nanos += time.Since(t0).Nanoseconds()
		s.Calls++
		s.Tuples += int64(n)
		ctx.Counters.PrimitiveCalls++
	}
	base := len(r.scan)
	for i, co := range r.ops {
		ins := r.inVecs[base+i]
		cn := n
		if len(ins) > 0 {
			cn = ins[0].Len()
		}
		chunk := r.outChunks[base+i]
		if chunk != nil {
			chunk.Reset()
		}
		t0 := time.Now()
		co.prog.Run(ctx, co.states, ins, cn, chunk)
		s := &p.samples[base+i]
		s.Nanos += time.Since(t0).Nanoseconds()
		s.Calls++
		s.Tuples += int64(cn)
		ctx.Counters.PrimitiveCalls++
	}
}
