package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/interp"
	"inkfuse/internal/obs"
	"inkfuse/internal/rt"
	"inkfuse/internal/sched"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/trace"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

// Options configures query execution.
type Options struct {
	Backend    Backend
	Workers    int           // default: GOMAXPROCS
	ChunkSize  int           // tuple-buffer rows, default 1024
	MorselSize int           // morsel rows, default 16384
	Latency    *LatencyModel // compile latency model; default LatencyC (nil) — ignored by the vectorized backend
	// MemoryBudget caps the bytes of query-owned runtime state (hash-table
	// arenas and bookkeeping). A query that crosses the cap fails with
	// ErrMemoryBudget instead of pressuring the process. 0 = unlimited.
	MemoryBudget int64
	// Trace enables the per-query execution trace (Result.Trace): per
	// pipeline the morsel counts, per-worker busy time, hybrid routing
	// decisions and EWMA series, compile timing, and finalization time.
	// Off by default; when off the morsel loop skips all trace work behind
	// one nil check per morsel (no per-row cost either way).
	Trace bool
	// Profile enables the sampled per-suboperator profiler on backends that
	// serve morsels through the vectorized interpreter (vectorized, hybrid):
	// one in every ProfileEvery chunks runs through a timed step loop that
	// attributes nanoseconds and input tuples to each suboperator primitive.
	// Results land in the trace (Pipeline.SubOps) and EXPLAIN ANALYZE. Off by
	// default; when off the chunk loop pays a single nil check.
	Profile bool
	// ProfileEvery is the profiler's sampling period in chunks;
	// 0 = interp.DefaultProfileEvery.
	ProfileEvery int
	// Pool is the engine-wide scheduler this query dispatches its morsels
	// into. nil = sched.Shared(), the process-wide default pool with
	// unlimited admission. Servers pass their own admission-controlled pool.
	// Workers stays the query's parallelism: it is the in-flight morsel cap
	// and per-query state fan-out (slot count), independent of the pool size.
	Pool *sched.Pool
	// Artifacts, when non-nil, caches compiled pipeline artifacts across
	// executions of the same plan instance: the compiling/ROF/hybrid backends
	// consult it before compiling and deposit what they compile. Artifacts
	// close over the plan's runtime state, so the set must only ever be used
	// with the plan it was built from (the plancache enforces this by leasing
	// plan and set together).
	Artifacts *ArtifactSet
	// QueryID is the engine-wide query id keying flight-recorder events and
	// trace/span correlation. 0 = allocate one (NextQueryID); servers assign
	// ids up front so admission failures are already attributable.
	QueryID uint64
	// TraceID and ParentSpanID carry W3C trace-context correlation from the
	// serving layer into the query trace (and from there into exported
	// spans). Empty = uncorrelated; the span renderer then derives a
	// deterministic trace id from QueryID.
	TraceID      string
	ParentSpanID string
	// Fingerprint is the plan-cache fingerprint of SQL-built plans, threaded
	// into scheduler QueryInfos and the canonical query log.
	Fingerprint string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = storage.DefaultChunkCap
	}
	if o.MorselSize <= 0 {
		o.MorselSize = storage.DefaultMorselRows
	}
	if o.Latency == nil {
		l := LatencyC
		o.Latency = &l
	}
	return o
}

// Result is a completed query.
type Result struct {
	Cols  []string
	Chunk *storage.Chunk
	Stats stats.Counters
	// QueryID is the engine-wide id this execution ran under (Options.QueryID
	// or freshly allocated) — the key for flight-recorder correlation.
	QueryID uint64
	// QueueWait is the time spent in the scheduler's admission queue before
	// the query started executing.
	QueueWait time.Duration
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// Warnings reports non-fatal degradations (e.g. a hybrid background
	// compile failed and the pipeline ran vectorized-only).
	Warnings []error
	// Trace is the execution trace, present when Options.Trace was set. A
	// failed or canceled query carries a coherent partial trace of the
	// pipelines that ran.
	Trace *trace.Query
}

// Rows returns the number of result rows.
func (r *Result) Rows() int {
	if r.Chunk == nil {
		return 0
	}
	return r.Chunk.Rows()
}

// Degraded reports whether the query ran degraded: a background compile
// failed and a pipeline was served by the vectorized interpreter alone.
func (r *Result) Degraded() bool {
	return len(r.Warnings) > 0 || r.Stats.CompileErrors > 0
}

// NewQueryEvent builds the canonical query-log event of one execution from
// its result (nil when the query never ran) and terminal error; callers add
// identity and routing. A failed query's outcome is "error" until the caller
// classifies it.
func NewQueryEvent(res *Result, err error) *obs.QueryEvent {
	e := &obs.QueryEvent{Outcome: "ok"}
	if err != nil {
		e.Outcome = "error"
		e.Error = err.Error()
	}
	if res != nil {
		e.ID = res.QueryID
		e.Rows = res.Rows()
		e.Wall = res.Wall
		e.QueueWait = res.QueueWait
		e.Stats = res.Stats
		e.Degraded = res.Degraded()
	}
	return e
}

// runner executes one pipeline's morsels for one backend.
type runner interface {
	runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk)
	// finish is called once the pipeline completes (cancels background work)
	// and returns compile statistics to fold into the query stats.
	finish() finishInfo
}

// finishInfo is the per-pipeline accounting a runner hands back.
type finishInfo struct {
	compileTime, compileWait time.Duration
	compileErrors            int64
	// degraded is the permanent background-compile failure of a hybrid
	// pipeline (nil otherwise); surfaced as a Result warning.
	degraded error
	// artifactReady is when the hybrid background artifact landed (zero if
	// never); recorded into the pipeline trace.
	artifactReady time.Time
	// subops is the merged per-suboperator profile (Options.Profile, backends
	// serving through the vectorized interpreter), with its sampling period
	// and the total number of chunks timed across workers.
	subops         []interp.SubOpSample
	profileEvery   int
	profiledChunks int64
}

// queryState is the shared lifecycle of one executing query: the first
// failure wins, every later morsel pull observes it and drains cleanly.
type queryState struct {
	ctx  context.Context
	down atomic.Bool

	mu  sync.Mutex
	err error
}

// fail records the query's failure; the first error is kept.
func (q *queryState) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.down.Store(true)
}

// stopped reports whether workers must stop pulling morsels, folding context
// cancellation into the failure state.
func (q *queryState) stopped() bool {
	if q.down.Load() {
		return true
	}
	if err := q.ctx.Err(); err != nil {
		q.fail(ctxCause(err))
		return true
	}
	return false
}

// failure returns the recorded error, if any.
func (q *queryState) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// errQueryStopped is the sentinel a morsel task returns when the query has
// already failed or been canceled: it stops the task set early without
// introducing a new error (the real failure lives in queryState).
var errQueryStopped = errors.New("exec: query stopped")

// queryIDSeq backs NextQueryID.
var queryIDSeq atomic.Uint64

// NextQueryID allocates a fresh engine-wide query id. Serving layers call it
// before admission so a shed or timed-out query already has an id its flight
// events attach to; ExecuteContext allocates one itself when Options.QueryID
// is zero.
func NextQueryID() uint64 { return queryIDSeq.Add(1) }

// Execute runs a lowered plan and returns its result.
func Execute(plan *core.Plan, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), plan, opts)
}

// ExecuteContext runs a lowered plan under a context. Cancellation and
// deadlines are observed at morsel granularity and inside compilation waits;
// the returned error wraps ErrCanceled / ErrDeadlineExceeded. Panics in
// query code and memory-budget violations fail only this query (typed as
// ErrPanic / ErrMemoryBudget inside a *QueryError): workers drain, the
// process and subsequent queries keep running. On failure the returned
// *Result is non-nil with Stats (no Chunk) for diagnostics.
func ExecuteContext(ctx context.Context, plan *core.Plan, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	qs := &queryState{ctx: ctx}
	obs.Default.Add(obs.QueriesStarted, 1)
	backend := opts.Backend.String()
	// The per-morsel latency histogram child is resolved once per query; the
	// morsel loop observes through the pointer (two atomic adds per morsel).
	morselHist := obs.Default.MorselLatency.With(backend)

	// Every execution runs under an engine-wide query id: the key its flight
	// events, scheduler QueryInfos row, and exported spans share. The query
	// label is interned once here so no later recording site touches the
	// intern table.
	qid := opts.QueryID
	if qid == 0 {
		qid = NextQueryID()
	}
	opts.QueryID = qid // runners key their compile events on it
	qlabel := flight.Default.Intern(plan.Name)
	flight.Default.Record(flight.KindQueryStart, qid, qlabel, int64(opts.Backend), 0)

	// done is the one query-end epilogue, success or failure: the process
	// registry (outcome, counter totals, histograms) and the flight record.
	// res is nil when the query never ran.
	done := func(res *Result, wall time.Duration, err error) {
		var c *stats.Counters
		if res != nil {
			c = &res.Stats
		}
		canceled := errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
		obs.Default.QueryDone(backend, c, wall, err, canceled, err == nil && res.Degraded())
		if err != nil {
			flight.Default.Record(flight.KindQueryError, qid, qlabel, int64(wall), 0)
		} else {
			flight.Default.Record(flight.KindQueryDone, qid, qlabel, int64(wall), int64(res.Rows()))
		}
	}

	// Admission: the query enters the engine-wide scheduler before it builds
	// any state. A rejected query (queue full, draining, over-capacity, or a
	// context that expired while queued) never ran — no worker contexts, no
	// tables, no partial trace.
	pool := opts.Pool
	if pool == nil {
		pool = sched.Shared()
	}
	adm, err := pool.AdmitWith(ctx, sched.AdmitInfo{
		ID: qid, Name: plan.Name, Backend: backend, Fingerprint: opts.Fingerprint,
		Mem: opts.MemoryBudget, Parallelism: opts.Workers,
	})
	if err != nil {
		err = admissionError(err)
		done(nil, time.Since(start), err)
		return nil, err
	}
	defer adm.Release()
	queueWait := adm.QueueWait()

	// qt is nil unless tracing was requested; every recording site below is
	// guarded on it at morsel granularity or coarser.
	var qt *trace.Query
	if opts.Trace {
		qt = trace.NewQuery(plan.Name, opts.Backend.String(), opts.Workers, start)
		qt.ID = qid
		qt.TraceID = opts.TraceID
		qt.ParentSpanID = opts.ParentSpanID
		qt.QueueWait = queueWait
	}

	var reg *interp.Registry
	if opts.Backend != BackendCompiling && opts.Backend != BackendROF {
		var err error
		if reg, err = interp.Default(); err != nil {
			done(nil, time.Since(start), err)
			return nil, err
		}
	}

	// The memory budget covers every table the query builds: the join tables
	// created at lowering, the workers' pre-aggregation tables (wired through
	// vm.Ctx), and the merged globals built at finalization.
	var budget *rt.MemBudget
	if opts.MemoryBudget > 0 {
		budget = rt.NewMemBudget(opts.MemoryBudget)
		for _, pipe := range plan.Pipelines {
			for _, js := range pipe.SealJoins {
				js.Table.SetBudget(budget)
			}
		}
	}

	ctxs := make([]*vm.Ctx, opts.Workers)
	for i := range ctxs {
		ctxs[i] = vm.NewCtx()
		ctxs[i].Budget = budget
	}

	var res stats.Counters
	var finalChunks []*storage.Chunk
	var warnings []error

	// failed builds the diagnostic result returned alongside a query error:
	// stats are merged so recovered-panic and compile-error counts survive,
	// and the partial trace (pipelines that ran) stays attached.
	failed := func(err error) (*Result, error) {
		for _, c := range ctxs {
			res.Add(&c.Counters)
		}
		res.MemPeakBytes = budget.Peak()
		wall := time.Since(start)
		if qt != nil {
			qt.Wall = wall
			qt.Err = err.Error()
		}
		r := &Result{
			Cols: plan.ColNames, Stats: res, QueryID: qid, QueueWait: queueWait,
			Wall: wall, Warnings: warnings, Trace: qt,
		}
		done(r, wall, err)
		return r, err
	}

	// The hybrid backend starts background compilation for every pipeline as
	// soon as the query enters the system (paper §V-B): by the time a later
	// pipeline runs, its fused code is usually already waiting.
	var bgs []*hybridCompile
	if opts.Backend == BackendHybrid {
		bgs = startHybridCompiles(ctx, qid, plan.Pipelines, *opts.Latency, opts.Artifacts)
		defer func() {
			for _, h := range bgs {
				h.abandon()
			}
		}()
	}

	for pi, pipe := range plan.Pipelines {
		if qs.stopped() {
			return failed(qs.failure())
		}
		pipeStart := time.Now()
		binder, err := bindSource(pipe)
		if err != nil {
			return failed(fmt.Errorf("exec: %s/%s: %w", plan.Name, pipe.Name, err))
		}
		morsels := storage.Morsels(binder.total, opts.MorselSize)

		// Cardinality hint for this pipeline's aggregations: one worker sees
		// at most a morsel of rows between table growth checks, and never
		// more groups than source rows. The hint pre-sizes shard bucket
		// arrays so the batched kernels don't resize mid-chunk while holding
		// a shard lock. Set before the workers spawn (they read it when
		// lazily creating their instances).
		for _, fin := range pipe.MergeAggs {
			fin.State.SizeHint = min(binder.total, opts.MorselSize)
		}

		// The pipeline trace is started before runner construction so the
		// foreground backends' compile wait falls inside the pipeline wall.
		var pt *trace.Pipeline
		if qt != nil {
			pt = qt.StartPipeline(pipe.Name, binder.total, len(morsels))
			pt.Start = pipeStart.Sub(start)
		}

		var bg *hybridCompile
		if bgs != nil {
			bg = bgs[pi]
		}
		r, err := newRunner(ctx, pi, pipe, opts, reg, bg, pt)
		if err != nil {
			return failed(fmt.Errorf("exec: %s/%s: %w", plan.Name, pipe.Name, err))
		}

		var outs []*storage.Chunk
		if pipe.Result != nil {
			outs = make([]*storage.Chunk, opts.Workers)
			for i := range outs {
				outs[i] = storage.NewChunk(pipe.ResultKinds())
			}
		}

		// One flight event per pipeline dispatch — morsel-batch granularity,
		// never per morsel.
		flight.Default.RecordStr(flight.KindMorselBatch, qid, pipe.Name,
			int64(len(morsels)), int64(binder.total))

		// Morsels dispatch into the shared pool instead of per-query worker
		// goroutines. slot is the query-local worker slot in
		// [0, opts.Workers): the scheduler guarantees at most one in-flight
		// task per slot, so ctxs[slot] / outs[slot] / pt.Workers[slot] keep
		// their single-writer discipline even though different pool workers
		// serve the slot over the pipeline's lifetime.
		runErr := adm.Run(ctx, len(morsels), func(slot, i int) error {
			if qs.stopped() {
				return errQueryStopped
			}
			wctx := ctxs[slot]
			var out *storage.Chunk
			if outs != nil {
				out = outs[slot]
			}
			// Trace recording works by one delta over the slot's own
			// counters, so the runner's per-morsel accounting (tuples,
			// hybrid routing, table behaviour) is captured without touching
			// hot paths. The morsel is always timed: the duration feeds the
			// process-wide latency histogram even when tracing is off.
			var before stats.Counters
			if pt != nil {
				before = wctx.Counters
			}
			t0 := time.Now()
			err := runMorselSafe(plan.Name, pipe.Name, opts.Backend, r, slot, i, wctx, binder, morsels[i], out)
			elapsed := time.Since(t0)
			morselHist.ObserveDuration(elapsed)
			if pt != nil {
				wt := &pt.Workers[slot]
				wt.Busy += elapsed
				wt.Morsels++
				wt.Counters.AddSince(&wctx.Counters, &before)
			}
			if err != nil {
				qs.fail(err)
				return errQueryStopped
			}
			return nil
		})
		if runErr != nil && !errors.Is(runErr, errQueryStopped) {
			switch {
			case errors.Is(runErr, sched.ErrQueryCanceled):
				// Drain force-cancel: the scheduler shut down under this
				// query; report it as a cancellation.
				qs.fail(fmt.Errorf("%w: %w", ErrCanceled, runErr))
			case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
				qs.fail(ctxCause(runErr))
			default:
				qs.fail(runErr)
			}
		}

		fi := r.finish()
		res.CompileTime += fi.compileTime
		res.CompileWait += fi.compileWait
		res.CompileErrors += fi.compileErrors
		if fi.degraded != nil {
			warnings = append(warnings, fmt.Errorf(
				"exec: %s/%s: background compile failed, pipeline served by the vectorized interpreter: %w",
				plan.Name, pipe.Name, fi.degraded))
			flight.Default.RecordStr(flight.KindDegraded, qid, pipe.Name, 0, 0)
		}
		if pt != nil {
			pt.CompileTime = fi.compileTime
			pt.CompileWait = fi.compileWait
			pt.CompileErrors = fi.compileErrors
			pt.Degraded = fi.degraded != nil
			if !fi.artifactReady.IsZero() {
				pt.ArtifactReady = fi.artifactReady.Sub(start)
			}
			if len(fi.subops) > 0 {
				pt.ProfileEvery = fi.profileEvery
				pt.ProfiledChunks = fi.profiledChunks
				pt.SubOps = make([]trace.SubOpProf, len(fi.subops))
				for i, s := range fi.subops {
					pt.SubOps[i] = trace.SubOpProf{ID: s.ID, Calls: s.Calls, Tuples: s.Tuples, Nanos: s.Nanos}
				}
			}
		}

		if err := qs.failure(); err != nil {
			if pt != nil {
				pt.Wall = time.Since(pipeStart)
			}
			return failed(err)
		}
		finStart := time.Now()
		if err := finalizeSafe(plan.Name, pipe, opts.Backend, ctxs, budget); err != nil {
			if pt != nil {
				pt.Finalize = time.Since(finStart)
				pt.Wall = time.Since(pipeStart)
			}
			return failed(err)
		}
		if pt != nil {
			pt.Finalize = time.Since(finStart)
			pt.Wall = time.Since(pipeStart)
		}
		if pipe.Result != nil {
			finalChunks = outs
		}
	}

	if qs.stopped() {
		return failed(qs.failure())
	}

	for _, ctx := range ctxs {
		res.Add(&ctx.Counters)
	}
	res.MemPeakBytes = budget.Peak()

	kinds, err := plan.FinalKinds()
	if err != nil {
		done(&Result{Stats: res}, time.Since(start), err)
		return nil, err
	}
	out := storage.NewChunk(kinds)
	for _, c := range finalChunks {
		out.AppendChunk(c)
	}
	if plan.Sort != nil {
		out = sortChunk(out, plan.Sort)
	}
	wall := time.Since(start)
	if qt != nil {
		qt.Wall = wall
	}
	r := &Result{
		Cols: plan.ColNames, Chunk: out, Stats: res, QueryID: qid, QueueWait: queueWait,
		Wall: wall, Warnings: warnings, Trace: qt,
	}
	done(r, wall, nil)
	return r, nil
}

// runMorselSafe executes one morsel with panic isolation: a panic anywhere
// below (generated code, primitives, hash tables, the budget) is converted
// into a located *QueryError instead of taking the process down.
func runMorselSafe(query, pipeName string, backend Backend, r runner, w, mi int,
	wctx *vm.Ctx, binder sourceBinder, m storage.Morsel, out *storage.Chunk) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			wctx.Counters.PanicsRecovered++
			qe := &QueryError{
				Query: query, Pipeline: pipeName, Backend: backend,
				Worker: w, Morsel: mi, Err: panicCause(rec),
			}
			if _, budget := rec.(*rt.BudgetExceeded); !budget {
				qe.Stack = string(debug.Stack())
			}
			err = qe
		}
	}()
	if err := faultinject.Inject(faultinject.ExecMorsel); err != nil {
		panic(err)
	}
	src, n := binder.bind(m)
	r.runMorsel(w, wctx, src, n, out)
	// Morsel boundary: spill the worker's thread-local pre-aggregation into
	// its shard table (group rows must not live across morsels). Pipelines
	// without aggregation pay one empty-map check. Inside the recover scope:
	// the merge can hit the memory budget too.
	wctx.FlushLocalAggs()
	wctx.Counters.Tuples += int64(n)
	return nil
}

// finalizeSafe runs pipeline finalization (join sealing, aggregate merging)
// with the same panic isolation as the morsel loop.
func finalizeSafe(query string, pipe *core.Pipeline, backend Backend, ctxs []*vm.Ctx, budget *rt.MemBudget) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ctxs[0].Counters.PanicsRecovered++
			qe := &QueryError{
				Query: query, Pipeline: pipe.Name, Backend: backend,
				Worker: -1, Morsel: -1, Err: panicCause(rec),
			}
			if _, isBudget := rec.(*rt.BudgetExceeded); !isBudget {
				qe.Stack = string(debug.Stack())
			}
			err = qe
		}
	}()
	if err := faultinject.Inject(faultinject.ExecFinalize); err != nil {
		panic(err)
	}
	return finalizePipeline(pipe, ctxs, budget)
}

// sourceBinder adapts a pipeline source to morsel-range vector bindings.
type sourceBinder struct {
	total int
	bind  func(m storage.Morsel) ([]*storage.Vector, int)
}

func bindSource(pipe *core.Pipeline) (sourceBinder, error) {
	switch s := pipe.Source.(type) {
	case *core.TableScan:
		cols := make([]*storage.Vector, len(s.Cols))
		for i, ci := range s.Cols {
			cols[i] = s.Table.Cols[ci]
		}
		return sourceBinder{
			total: s.Table.Rows(),
			bind: func(m storage.Morsel) ([]*storage.Vector, int) {
				vs := make([]*storage.Vector, len(cols))
				for i, c := range cols {
					vs[i] = c.Slice(m.Start, m.End)
				}
				return vs, m.Rows()
			},
		}, nil
	case *core.AggRead:
		if s.State.Global == nil {
			return sourceBinder{}, fmt.Errorf("%w: aggregate source read before its build pipeline completed", ErrInvalidPlan)
		}
		snap := s.State.Global.Snapshot()
		return sourceBinder{
			total: len(snap),
			bind: func(m storage.Morsel) ([]*storage.Vector, int) {
				v := &storage.Vector{Kind: types.Ptr, Ptr: snap[m.Start:m.End]}
				return []*storage.Vector{v}, m.Rows()
			},
		}, nil
	default:
		return sourceBinder{}, fmt.Errorf("%w: unknown source %T", ErrInvalidPlan, pipe.Source)
	}
}

func finalizePipeline(pipe *core.Pipeline, ctxs []*vm.Ctx, budget *rt.MemBudget) error {
	for _, js := range pipe.SealJoins {
		js.Table.Seal()
	}
	if len(pipe.MergeAggs) == 0 {
		return nil
	}
	taken := make([]map[*rt.AggTableState]*rt.AggTable, len(ctxs))
	for i, ctx := range ctxs {
		taken[i] = ctx.TakeAggTables()
	}
	for _, fin := range pipe.MergeAggs {
		var parts []*rt.AggTable
		for _, m := range taken {
			if t, ok := m[fin.State]; ok {
				parts = append(parts, t)
			}
		}
		var global *rt.AggTable
		switch len(parts) {
		case 0:
			global = fin.State.NewInstance()
			global.SetBudget(budget)
		case 1:
			global = parts[0]
		default:
			global = fin.State.NewInstance()
			global.SetBudget(budget)
			for _, p := range parts {
				fin.State.MergeInto(global, p)
			}
		}
		if fin.Keyless && global.Groups() == 0 {
			// SQL semantics: aggregates without GROUP BY produce one row
			// even on empty input. The forced group reads as zeros (stand-in
			// for SQL NULL; MIN/MAX init sentinels must not leak out).
			row := global.FindOrCreate(nil, rt.Hash64(nil))
			payload := row[rt.RowPayloadOff(row):]
			for i := range payload {
				payload[i] = 0
			}
		}
		fin.State.Global = global
	}
	return nil
}
