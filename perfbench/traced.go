package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/sql"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
)

// maxDirectCalls bounds how much of the query stream the direct layer calls
// replay; the medians settle long before.
const maxDirectCalls = 512

// span is one benchmark span: a request as the client saw it, or one direct
// call into a layer. QueryID joins a request span to the engine's query event
// and exported spans.
type span struct {
	Name    string `json:"name"`
	Query   string `json:"query"`
	QueryID uint64 `json:"query_id,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newSpan(name, q string, start, end time.Time) span {
	return span{Name: name, Query: q, StartNS: start.UnixNano(), EndNS: end.UnixNano()}
}

// lockedBuffer is an in-memory sink for the query log and span export;
// nothing is written out until the run ends.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

// runtimeSnapshot reads the Go runtime's allocation and GC CPU counters.
type runtimeSnapshot struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnapshot{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// runTraced measures the per-layer metrics in one process, in this order:
//
//  1. direct, timed calls into the layers' public functions over the
//     workload's query stream, on a catalog generated for the purpose (sql,
//     algebra, core, tpch), and exec.ExecuteContext replays of each query on
//     the vectorized, compiling and hybrid backends (interp, vm, rt);
//  2. half a window of the untraced production configuration, as in an
//     end-to-end run;
//  3. a traced server for a whole window: the canonical query log and the
//     span export kept in memory, one benchmark span per request, joined by
//     query id, giving the exec metrics, each layer's self time and the
//     traced qps;
//  4. the second untraced half. The two halves bracket the traced window, so
//     a drift in host speed affects both sides of the tracing overhead
//     alike. Their responses and Go runtime counters give the serve,
//     plancache, sched.queue_wait, exec.wall and runtime metrics.
//
// Each phase drops its catalog before the next starts, so at most one is
// resident. The joined trace is written to traceDir when the run ends.
func runTraced(w workload, seed uint64, d time.Duration, exp *expected, traceDir string) (result, map[string]any, error) {
	m := map[string]metric{}
	fail := func(err error) (result, map[string]any, error) { return result{}, nil, err }

	stream := make([]string, maxDirectCalls)
	seq := newSequence(seed, time.Now().Add(time.Hour))
	for i := range stream {
		_, stream[i], _ = seq.take()
	}
	direct, err := directCalls(w, stream, exp, m)
	if err != nil {
		return fail(err)
	}
	freeMemory()

	bodies, err := requestBodies()
	if err != nil {
		return fail(err)
	}
	var (
		base          []sample
		baseS         float64
		baseFailed    int
		firstErr      string
		allocs, gcCPU float64
		totalCPU      float64
	)
	untracedHalf := func() error {
		win, _, err := measure(serverConfig(w, io.Discard, nil), w, seed, d/2, bodies, exp, func(*server) func() {
			r0 := readRuntime()
			return func() {
				r1 := readRuntime()
				allocs += r1.allocBytes - r0.allocBytes
				gcCPU += r1.gcCPU - r0.gcCPU
				totalCPU += r1.totalCPU - r0.totalCPU
			}
		})
		base, baseS, baseFailed = append(base, win.samples...), baseS+win.seconds(), baseFailed+win.failed
		if firstErr == "" {
			firstErr = win.firstErr
		}
		freeMemory()
		return err
	}
	if err := untracedHalf(); err != nil {
		return fail(err)
	}

	logBuf, spanBuf := &lockedBuffer{}, &lockedBuffer{}
	var (
		running []float64
		shed    int64
	)
	traced, _, err := measure(serverConfig(w, logBuf, spanBuf), w, seed, d, bodies, exp, func(s *server) func() {
		shed0 := s.srv.SchedStats().Shed
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					running = append(running, float64(s.srv.SchedStats().Running))
				}
			}
		}()
		return func() {
			close(stop)
			<-done
			shed = s.srv.SchedStats().Shed - shed0
		}
	})
	if err != nil {
		return fail(err)
	}
	freeMemory()
	if err := untracedHalf(); err != nil {
		return fail(err)
	}

	m["runtime.alloc_mb_per_query"] = metric{ratio(allocs, float64(len(base))) / (1 << 20), "MB"}
	m["runtime.gc_cpu_share"] = metric{ratio(gcCPU, totalCPU), "ratio"}
	var overhead, wall, queue []float64
	hits := 0
	for _, smp := range base {
		if !smp.ok {
			continue
		}
		overhead = append(overhead, smp.latencyMS()-smp.wallMS)
		wall = append(wall, smp.wallMS)
		queue = append(queue, smp.queueMS)
		if smp.planCache == "hit" {
			hits++
		}
	}
	m["serve.overhead_ms"] = metric{finite(median(overhead)), "ms"}
	m["exec.wall_ms"] = metric{finite(median(wall)), "ms"}
	m["sched.queue_wait_ms"] = metric{finite(percentile(queue, 0.9)), "ms"}
	// With the plan cache off every response says "off": no hits.
	m["plancache.hit_ratio"] = metric{ratio(float64(hits), float64(len(wall))), "ratio"}
	m["sched.running_mean"] = metric{mean(running), "count"}
	m["sched.shed"] = metric{float64(shed), "count"}
	baseQPS := ratio(float64(len(wall)), baseS)
	m["bench.tracing_overhead"] = metric{1 - ratio(traced.qps(), baseQPS), "ratio"}

	requests, err := joinTrace(traced, logBuf.lines(), spanBuf.lines(), m)
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := writeTrace(path, map[string]any{"workload": w.name, "requests": requests, "direct": direct}); err != nil {
		return fail(err)
	}

	failed := baseFailed + traced.failed
	res := result{Correct: failed == 0, Attempted: len(base) + len(traced.samples), Failed: failed, Metrics: m}
	report := map[string]any{
		"workload": w.name, "trace_file": path,
		"untraced_qps": baseQPS, "traced_qps": traced.qps(),
		"untraced_samples": len(base), "traced_samples": len(traced.samples),
		"direct_calls": len(stream), "first_error": firstErr + traced.firstErr,
	}
	return res, report, nil
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// directCalls times the frontend layers over the query stream and replays
// each query through exec.ExecuteContext on three backends, checking each
// replay against the oracle and filling the sql, algebra, core, tpch, interp,
// vm and rt metrics. It returns its spans.
func directCalls(w workload, stream []string, exp *expected, m map[string]metric) ([]span, error) {
	t0 := time.Now()
	cat := tpch.Generate(w.sf, catalogSeed)
	spans := []span{newSpan("tpch.Generate", "", t0, time.Now())}
	m["tpch.generate_s"] = metric{time.Since(t0).Seconds(), "s"}

	var compileUS, lowerUS, verifyUS []float64
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Microsecond) }
	for _, q := range stream {
		t0 := time.Now()
		stmt, err := sql.Compile(cat, tpch.SQL[q])
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("sql.Compile %s: %w", q, err)
		}
		plan, _, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("algebra.LowerWithParams %s: %w", q, err)
		}
		err = core.VerifyPlan(plan)
		t3 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("core.VerifyPlan %s: %w", q, err)
		}
		compileUS, lowerUS, verifyUS = append(compileUS, us(t0, t1)), append(lowerUS, us(t1, t2)), append(verifyUS, us(t2, t3))
		spans = append(spans, newSpan("sql.Compile", q, t0, t1), newSpan("algebra.LowerWithParams", q, t1, t2),
			newSpan("core.VerifyPlan", q, t2, t3))
	}
	m["sql.compile_us"] = metric{median(compileUS), "us"}
	m["algebra.lower_us"] = metric{median(lowerUS), "us"}
	m["core.verify_us"] = metric{median(verifyUS), "us"}

	// Replays: the vectorized backend is the interpreter alone; the compiling
	// backend's second run reuses its compiled artifacts, so it times the VM
	// without compilation; the hybrid backend runs as the workload serves it
	// (a cache hit with warm artifacts, or a cold plan when the cache is off)
	// and its counters give the runtime hash-table metrics.
	hybridRuns := 1
	if w.planCache {
		hybridRuns = 2
	}
	var vec, vm, hyb replayStats
	for _, q := range tpch.Queries {
		for _, r := range []struct {
			backend exec.Backend
			runs    int
			into    *replayStats
		}{{exec.BackendVectorized, 1, &vec}, {exec.BackendCompiling, 2, &vm}, {exec.BackendHybrid, hybridRuns, &hyb}} {
			res, sp, err := replay(cat, q, r.backend, r.runs)
			if err == nil {
				err = exp.Queries[q].check(res.Cols, chunkCells(res.Chunk), res.Rows(), false)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s on %s: %w", q, r.backend, err)
			}
			r.into.add(res)
			spans = append(spans, sp)
		}
	}
	m["interp.tuples_per_s"] = metric{vec.tuplesPerSec(), "1/s"}
	m["interp.materialized_bytes_per_tuple"] = metric{ratio(float64(vec.c.MaterializedBytes), float64(vec.c.Tuples)), "B"}
	m["vm.tuples_per_s"] = metric{vm.tuplesPerSec(), "1/s"}
	m["vm.ops_per_tuple"] = metric{ratio(float64(vm.c.VMOps), float64(vm.c.Tuples)), "count"}
	m["rt.probes_per_tuple"] = metric{ratio(float64(hyb.c.HTProbes), float64(hyb.c.Tuples)), "count"}
	m["rt.bloom_skip_ratio"] = metric{ratio(float64(hyb.c.HTBloomSkips), float64(hyb.c.HTProbes)), "ratio"}
	m["rt.local_hits_per_tuple"] = metric{ratio(float64(hyb.c.HTLocalHits), float64(hyb.c.Tuples)), "count"}
	m["rt.spills_per_query"] = metric{ratio(float64(hyb.c.HTSpills), float64(hyb.queries)), "count"}
	return spans, nil
}

// replayStats sums replay counters.
type replayStats struct {
	c       stats.Counters
	wall    time.Duration
	queries int
}

func (s *replayStats) add(r *exec.Result) {
	s.c.Add(&r.Stats)
	s.wall += r.Wall
	s.queries++
}

func (s *replayStats) tuplesPerSec() float64 { return ratio(float64(s.c.Tuples), s.wall.Seconds()) }

// replay runs one query runs times on one plan instance, resetting its state
// between runs as the plan cache does, and returns the last result.
func replay(cat *storage.Catalog, q string, backend exec.Backend, runs int) (*exec.Result, span, error) {
	stmt, err := sql.Compile(cat, tpch.SQL[q])
	if err != nil {
		return nil, span{}, err
	}
	plan, err := lowerBound(stmt)
	if err != nil {
		return nil, span{}, err
	}
	arts := exec.NewArtifactSet()
	var (
		res   *exec.Result
		start time.Time
	)
	for i := 0; i < runs; i++ {
		if i > 0 {
			core.ResetPlanState(plan)
		}
		start = time.Now()
		if res, err = exec.ExecuteContext(context.Background(), plan, exec.Options{Backend: backend, Artifacts: arts}); err != nil {
			return nil, span{}, err
		}
	}
	return res, newSpan("exec.ExecuteContext "+backend.String(), q, start, time.Now()), nil
}

// otlpDoc is the part of the engine's OTLP span export the benchmark reads.
type otlpDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []otlpSpan `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

type otlpSpan struct {
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId"`
	Name         string `json:"name"`
	Start        string `json:"startTimeUnixNano"`
	End          string `json:"endTimeUnixNano"`
	Attributes   []struct {
		Key   string `json:"key"`
		Value struct {
			IntValue string `json:"intValue"`
		} `json:"value"`
	} `json:"attributes"`
}

func (s otlpSpan) interval() (int64, int64) {
	a, _ := strconv.ParseInt(s.Start, 10, 64)
	b, _ := strconv.ParseInt(s.End, 10, 64)
	return a, b
}

func (s otlpSpan) intAttr(key string) int64 {
	for _, a := range s.Attributes {
		if a.Key == key {
			v, _ := strconv.ParseInt(a.Value.IntValue, 10, 64)
			return v
		}
	}
	return 0
}

// tracedRequest is one request of the traced phase with everything the
// engine reported about it.
type tracedRequest struct {
	Request span               `json:"request"`
	Event   map[string]any     `json:"event"`
	Spans   []otlpSpan         `json:"engine_spans"`
	SelfMS  map[string]float64 `json:"self_ms"`
}

// joinTrace joins each traced request to its canonical query event and its
// exported spans by engine query id, and derives the exec metrics and each
// layer's self time: a span's duration minus the part of it that its child
// spans cover.
func joinTrace(win window, logLines, spanLines []string, m map[string]metric) ([]tracedRequest, error) {
	events := map[uint64]map[string]any{}
	for _, l := range logLines {
		var e map[string]any
		dec := json.NewDecoder(strings.NewReader(l))
		dec.UseNumber()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("query log line %q: %w", l, err)
		}
		if e["msg"] != "query" {
			continue
		}
		id, _ := strconv.ParseUint(fmt.Sprint(e["id"]), 10, 64)
		events[id] = e
	}
	docs := map[uint64][]otlpSpan{}
	for _, l := range spanLines {
		var doc otlpDoc
		if err := json.Unmarshal([]byte(l), &doc); err != nil {
			return nil, fmt.Errorf("span export line: %w", err)
		}
		var spans []otlpSpan
		for _, rs := range doc.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				spans = append(spans, ss.Spans...)
			}
		}
		if len(spans) > 0 {
			docs[uint64(spans[0].intAttr("inkfuse.query_id"))] = spans
		}
	}

	var (
		out                                     []tracedRequest
		tuples, wallNS, jit, vec, reused        float64
		compileNS, compileWaitNS, compiles, fin float64
		self                                    = map[string]float64{}
	)
	for _, smp := range win.samples {
		if !smp.ok {
			continue
		}
		e, spans := events[smp.queryID], docs[smp.queryID]
		if e == nil || len(spans) == 0 {
			return nil, fmt.Errorf("query %d (%s): no query event or no exported spans", smp.queryID, smp.query)
		}
		req := newSpan("request", smp.query, smp.start, smp.end)
		req.QueryID = smp.queryID
		tuples += num(e["tuples"])
		wallNS += num(e["wall"])
		jit += num(e["morsels_jit"])
		vec += num(e["morsels_vec"])
		reused += num(e["artifacts_reused"])
		compileNS += num(e["compile_time"])
		compileWaitNS += num(e["compile_wait"])

		sm := selfTimes(req, spans)
		for k, v := range sm {
			self[k] += v
		}
		for _, sp := range spans {
			switch {
			case strings.HasPrefix(sp.Name, "compile ") && sp.intAttr("inkfuse.compile_ns") > 0:
				compiles++
			case strings.HasPrefix(sp.Name, "finalize "):
				a, b := sp.interval()
				fin += float64(b - a)
			}
		}
		out = append(out, tracedRequest{Request: req, Event: e, Spans: spans, SelfMS: sm})
	}
	n := float64(len(out))
	if n == 0 {
		return nil, fmt.Errorf("traced phase completed no requests")
	}
	m["exec.tuples_per_s"] = metric{ratio(tuples, wallNS/1e9), "1/s"}
	m["exec.compiled_morsel_share"] = metric{ratio(jit, jit+vec), "ratio"}
	m["exec.artifacts_reused_per_query"] = metric{reused / n, "count"}
	m["exec.compile_time_ms"] = metric{compileNS / n / 1e6, "ms"}
	m["exec.compile_wait_ms"] = metric{compileWaitNS / n / 1e6, "ms"}
	m["exec.compiles_per_query"] = metric{compiles / n, "count"}
	m["exec.finalize_ms"] = metric{fin / n / 1e6, "ms"}
	for _, layer := range selfLayers {
		m["self."+layer+"_ms"] = metric{self[layer] / n, "ms"}
	}
	return out, nil
}

// selfLayers names the levels of a request's span tree: the serving layer
// (request minus engine query), the admission queue, the executor's own
// time (query minus queue and pipelines), pipeline execution (pipelines
// minus their compile and finalize children) and compilation. Finalize
// spans are leaves, reported as exec.finalize_ms.
var selfLayers = []string{"serve", "sched", "exec", "pipeline", "compile"}

// selfTimes computes the self time of every level of one request's tree.
func selfTimes(req span, spans []otlpSpan) map[string]float64 {
	children := map[string][]otlpSpan{}
	var root otlpSpan
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "query ") {
			root = sp
		} else {
			children[sp.ParentSpanID] = append(children[sp.ParentSpanID], sp)
		}
	}
	out := map[string]float64{}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	qa, qb := root.interval()
	out["serve"] = ms(selfTime(req.StartNS, req.EndNS, [][2]int64{{qa, qb}}))
	var top [][2]int64
	for _, c := range children[root.SpanID] {
		a, b := c.interval()
		top = append(top, [2]int64{a, b})
		if c.Name == "admission queue" {
			out["sched"] += ms(b - a)
			continue
		}
		var sub [][2]int64
		for _, g := range children[c.SpanID] {
			ga, gb := g.interval()
			sub = append(sub, [2]int64{ga, gb})
			if strings.HasPrefix(g.Name, "compile ") {
				out["compile"] += ms(gb - ga)
			}
		}
		out["pipeline"] += ms(selfTime(a, b, sub))
	}
	out["exec"] = ms(selfTime(qa, qb, top))
	return out
}

// selfTime is the length of [a, b) not covered by the union of the child
// intervals, each clipped to [a, b).
func selfTime(a, b int64, children [][2]int64) int64 {
	if b <= a {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], a), min(c[1], b)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	covered, end := int64(0), a
	for _, c := range iv {
		lo := max(c[0], end)
		if c[1] > lo {
			covered += c[1] - lo
			end = c[1]
		}
	}
	return (b - a) - covered
}

func num(v any) float64 {
	n, ok := v.(json.Number)
	if !ok {
		return 0
	}
	f, _ := n.Float64()
	return f
}

func writeTrace(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
