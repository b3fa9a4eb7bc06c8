package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"inkfuse/internal/serve"
	"inkfuse/internal/tpch"
)

// backend is inkserve's default execution backend, which every request uses.
const backend = "hybrid"

// catalogSeed is inkserve's default catalog seed. It stays fixed: the
// oracle's expected rows depend on it. The workload seed only orders queries.
const catalogSeed = 42

// workload is one traffic mix against one resident catalog.
type workload struct {
	name      string
	sf        float64
	clients   int
	planCache bool
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json records why
// each was chosen; README.md which layers each exercises and bypasses.
var workloads = []workload{
	{name: "hot-sf1", sf: 1, clients: 1, planCache: true},
	{name: "adhoc-sf0.01", sf: 0.01, clients: 1, planCache: false},
	{name: "pair-sf0.1", sf: 0.1, clients: 2, planCache: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// serverConfig is inkserve's default configuration for w: hybrid backend,
// unlimited admission, engine pool sized from GOMAXPROCS, the default LatencyC
// compile model, a 30 s timeout and a 100-row response cap. The query log
// goes through a JSON handler to logOut; spans, when non-nil, is the span
// sink and turns on execution tracing for every query.
func serverConfig(w workload, logOut, spans io.Writer) serve.Config {
	cfg := serve.Config{
		SF: w.sf, Seed: catalogSeed,
		DefaultBackend: backend,
		DefaultTimeout: 30 * time.Second,
		SlowQuery:      500 * time.Millisecond,
		MaxRows:        100,
		Logger:         slog.New(slog.NewJSONHandler(logOut, nil)),
		LogSampleRate:  1,
	}
	if !w.planCache {
		cfg.PlanCacheEntries = -1
	}
	if spans != nil {
		cfg.SpanSink = spans
	}
	return cfg
}

// server is an in-process inkserve instance on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer builds the server and returns once it answers a health check;
// the returned duration is the set-up time a user of inkserve waits for.
func startServer(cfg serve.Config) (*server, time.Duration, error) {
	t0 := time.Now()
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(s.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// stop drains the engine, shuts the HTTP server down and waits for Serve to
// return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Close(ctx)
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop user: one goroutine, one keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url + "/query"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// requestBodies builds the request body of each TPC-H query once.
func requestBodies() (map[string][]byte, error) {
	out := make(map[string][]byte, len(tpch.Queries))
	for _, q := range tpch.Queries {
		b, err := json.Marshal(serve.QueryRequest{SQL: tpch.SQL[q]})
		if err != nil {
			return nil, err
		}
		out[q] = b
	}
	return out, nil
}

// sample is one request as the client saw it.
type sample struct {
	index      int
	query      string
	start, end time.Time
	ok         bool   // 200 and the result matched the oracle
	err        string // why it did not
	wallMS     float64
	queueMS    float64
	planCache  string
	queryID    uint64
}

func (s *sample) latencyMS() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.end.Sub(s.start)) / float64(time.Millisecond)
}

// do sends one query and checks the response against the oracle. Latency
// runs from just before the send to the decoded response.
func (c *client) do(index int, q string, body []byte, exp *expected) sample {
	s := sample{index: index, query: q, start: time.Now()}
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.end = time.Now()
		s.err = err.Error()
		return s
	}
	var qr serve.QueryResponse
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if resp.StatusCode == http.StatusOK {
		err = dec.Decode(&qr)
	} else {
		var er serve.ErrorResponse
		_ = dec.Decode(&er)
		err = fmt.Errorf("status %d: %s: %s", resp.StatusCode, er.Kind, er.Error)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	s.end = time.Now()
	if err == nil {
		err = exp.Queries[q].check(qr.Columns, qr.Data, qr.TotalRows, qr.RowsTruncated)
	}
	if err != nil {
		s.err = fmt.Sprintf("%s: %v", q, err)
		return s
	}
	s.ok = true
	s.wallMS, s.queueMS, s.planCache, s.queryID = qr.WallMS, qr.QueueWaitMS, qr.PlanCache, qr.QueryID
	return s
}

// sequence hands out the query stream: the workload seed shuffles the eight
// queries into rounds, so every query appears equally often and the mix of a
// run does not depend on where the run stops. After the deadline it finishes
// the current round and then ends the stream.
type sequence struct {
	mu       sync.Mutex
	rng      *rand.Rand
	round    []int
	next     int
	deadline time.Time
}

func newSequence(seed uint64, deadline time.Time) *sequence {
	return &sequence{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), deadline: deadline}
}

func (s *sequence) take() (int, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(tpch.Queries)
	if s.next%n == 0 {
		if time.Now().After(s.deadline) {
			return 0, "", false
		}
		s.round = s.rng.Perm(n)
	}
	i := s.next
	s.next++
	return i, tpch.Queries[s.round[i%n]], true
}

// warmUp runs each query once, untimed and in a fixed order, so lazy set-up
// and the plan cache are filled before timing starts.
func warmUp(url string, bodies map[string][]byte, exp *expected) error {
	c := newClient(url)
	defer c.close()
	for i, q := range tpch.Queries {
		if s := c.do(-1-i, q, bodies[q], exp); !s.ok {
			return fmt.Errorf("warm-up: %s", s.err)
		}
	}
	return nil
}

// drive runs the closed loop: each client sends its next query when the
// previous answer has arrived, until the sequence ends. Samples come back in
// stream order.
func drive(url string, clients int, seq *sequence, bodies map[string][]byte, exp *expected) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for ci := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for {
				i, q, ok := seq.take()
				if !ok {
					return
				}
				per[ci] = append(per[ci], c.do(i, q, bodies[q], exp))
			}
		}()
	}
	wg.Wait()
	out := slices.Concat(per...)
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// timed drives one closed-loop window on a warmed-up server.
func timed(url string, clients int, seed uint64, d time.Duration, bodies map[string][]byte, exp *expected) window {
	start := time.Now()
	return newWindow(start, drive(url, clients, newSequence(seed, start.Add(d)), bodies, exp))
}

// measure starts a server with cfg, warms it up, drives one timed window and
// stops the server, returning the window and the set-up time. around, when
// non-nil, runs just before the window and returns what to run just after.
func measure(cfg serve.Config, w workload, seed uint64, d time.Duration, bodies map[string][]byte, exp *expected,
	around func(*server) func()) (window, time.Duration, error) {
	s, setup, err := startServer(cfg)
	if err != nil {
		return window{}, 0, err
	}
	var win window
	if err = warmUp(s.url, bodies, exp); err == nil {
		after := func() {}
		if around != nil {
			after = around(s)
		}
		win = timed(s.url, w.clients, seed, d, bodies, exp)
		after()
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	return win, setup, err
}

// window summarizes one timed closed-loop phase.
type window struct {
	samples  []sample
	start    time.Time
	end      time.Time
	failed   int
	firstErr string
}

func newWindow(start time.Time, samples []sample) window {
	w := window{samples: samples, start: start, end: start}
	for _, s := range samples {
		if s.end.After(w.end) {
			w.end = s.end
		}
		if !s.ok {
			w.failed++
			if w.firstErr == "" {
				w.firstErr = s.err
			}
		}
	}
	return w
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// qps counts completed, correct queries per second of the window.
func (w window) qps() float64 {
	if w.seconds() <= 0 {
		return 0
	}
	return float64(len(w.samples)-w.failed) / w.seconds()
}

func (w window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i := range w.samples {
		out[i] = w.samples[i].latencyMS()
	}
	return out
}

// percentile interpolates linearly between the closest ranks; +Inf entries
// (failed requests) sort last.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := slices.Clone(values)
	slices.Sort(v)
	pos := p * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	if math.IsInf(v[hi], 1) {
		return v[hi]
	}
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
