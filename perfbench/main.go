// Command perfbench is the repository's serving benchmark. It starts the real
// inkserve server (internal/serve) in-process on a loopback listener, drives
// it with closed-loop HTTP clients sending the eight TPC-H SQL texts, checks
// every response against an oracle computed in a separate process, and
// prints one JSON result line. README.md describes the workloads, the
// metrics and what each workload is predicted to show.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload hot-sf1 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --all            # every workload, one table
//	bash perfbench/run.sh --all --trace 1  # every workload, per-layer metrics
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"inkfuse/internal/exec"
	"inkfuse/internal/sched"
	"inkfuse/internal/tpch"
)

// buildDir holds everything the benchmark writes: the binary, the Go build
// cache, cached oracle results and trace files. run.sh uses the same path.
const buildDir = ".bench_build"

// setupRuns is how many times a run sets the server up; setup_s is their
// median. All but one happen in child processes so they do not raise the
// measured process's peak RSS.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is printed with every result, so that a change of compile model,
// worker count or host shows as a configuration change, not as a speed-up.
type runConfig struct {
	Workload          string  `json:"workload"`
	NProc             int     `json:"nproc"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	GoVersion         string  `json:"go_version"`
	Commit            string  `json:"commit"`
	SourceSHA256      string  `json:"source_sha256"`
	SF                float64 `json:"sf"`
	CatalogSeed       uint64  `json:"catalog_seed"`
	WorkloadSeed      uint64  `json:"workload_seed"`
	Clients           int     `json:"clients"`
	Backend           string  `json:"backend"`
	PlanCache         string  `json:"plan_cache"`
	EngineWorkers     int     `json:"engine_workers"`
	LatencyCBaseUS    float64 `json:"latency_c_base_us"`
	LatencyCPerNodeUS float64 `json:"latency_c_per_node_us"`
	RunSeconds        int     `json:"run_seconds"`
	WarmupQueries     int     `json:"warmup_queries"`
	Oracle            string  `json:"oracle"`
	Trace             bool    `json:"trace"`
}

func newRunConfig(w workload, seed uint64, seconds int, traced bool, srcHash string) runConfig {
	cache := "off"
	if w.planCache {
		cache = "on"
	}
	return runConfig{
		Workload: w.name, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID, SourceSHA256: srcHash,
		SF: w.sf, CatalogSeed: catalogSeed, WorkloadSeed: seed, Clients: w.clients,
		Backend: backend, PlanCache: cache, EngineWorkers: sched.DefaultWorkers(),
		LatencyCBaseUS:    float64(exec.LatencyC.Base) / float64(time.Microsecond),
		LatencyCPerNodeUS: float64(exec.LatencyC.PerNode) / float64(time.Microsecond),
		RunSeconds:        seconds, WarmupQueries: len(tpch.Queries), Oracle: oracleMethod(w.sf), Trace: traced,
	}
}

// commitID is the git commit run.sh stamps into the binary, when it runs in
// a git checkout; source_sha256 identifies the code either way.
var commitID = "unknown"

func main() {
	var (
		name         = flag.String("workload", "", "workload to run")
		seed         = flag.Uint64("seed", 1, "workload seed: orders the query stream")
		seconds      = flag.Int("seconds", 25, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		all          = flag.Bool("all", false, "run every workload in turn and print one table")
		setupProbe   = flag.Bool("setup-probe", false, "internal: set the server up once and print the time")
		oracleSF     = flag.Float64("oracle-sf", 0, "internal: compute the oracle at this scale factor")
		oracleOut    = flag.String("oracle-out", "", "internal: oracle output file")
		oracleAnchor = flag.String("oracle-anchor", "", "internal: Volcano oracle file the vectorized reference must match")
	)
	flag.Parse()
	var err error
	switch {
	case *oracleSF > 0:
		err = oracleMain(*oracleSF, *oracleOut, *oracleAnchor)
	case *all:
		err = allMain(*seed, *seconds, *trace == 1)
	case *setupProbe:
		err = setupProbeMain(*name)
	default:
		err = runMain(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func oracleMain(sf float64, out, anchor string) error {
	if anchor != "" {
		volcanoExp, err := readExpected(anchor)
		if err != nil {
			return err
		}
		if err := anchorVectorizedReference(volcanoExp); err != nil {
			return err
		}
		runtime.GC()
	}
	t0 := time.Now()
	exp, err := computeExpected(sf)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s oracle at SF %g computed in %.1fs\n", exp.Method, sf, time.Since(t0).Seconds())
	return writeExpected(out, exp)
}

func setupProbeMain(name string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	s, setup, err := startServer(serverConfig(w, io.Discard, nil))
	if err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	fmt.Println(setup.Seconds())
	return nil
}

// child runs this binary with args and returns its standard output; its
// standard error passes through.
func child(args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	return out, nil
}

// ensureOracles makes sure the expected results of every workload's scale
// factor are cached, computing missing ones in child processes, and returns
// the one for sf. All are computed on the first run in a checkout, which is
// the run allowed to take long.
func ensureOracles(sf float64, srcHash string) (*expected, error) {
	dir := buildDir + "/oracle"
	sfs := []float64{volcanoMaxSF}
	for _, w := range workloads {
		sfs = append(sfs, w.sf)
	}
	slices.Sort(sfs)
	for _, s := range slices.Compact(sfs) {
		path := oraclePath(dir, s, srcHash)
		if _, err := os.Stat(path); err == nil {
			continue
		}
		args := []string{"-oracle-sf", strconv.FormatFloat(s, 'g', -1, 64), "-oracle-out", path}
		if oracleMethod(s) != methodVolcano {
			args = append(args, "-oracle-anchor", oraclePath(dir, volcanoMaxSF, srcHash))
		}
		if _, err := child(args...); err != nil {
			return nil, err
		}
	}
	return readExpected(oraclePath(dir, sf, srcHash))
}

func runMain(name string, seed uint64, seconds, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	srcHash, err := sourceHash(".")
	if err != nil {
		return err
	}
	exp, err := ensureOracles(w.sf, srcHash)
	if err != nil {
		return err
	}
	if err := selfTest(exp); err != nil {
		return err
	}
	cfg := newRunConfig(w, seed, seconds, trace == 1, srcHash)
	d := time.Duration(seconds) * time.Second
	var (
		res    result
		report map[string]any
	)
	if trace == 1 {
		res, report, err = runTraced(w, seed, d, exp, buildDir+"/traces")
	} else {
		probe := func() (float64, error) {
			out, err := child("-setup-probe", "-workload", w.name)
			if err != nil {
				return 0, err
			}
			return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		}
		res, report, err = runUntraced(w, seed, d, exp, probe, buildDir+"/samples")
	}
	if err != nil {
		return err
	}
	report["config"] = cfg
	if err := printJSON(os.Stdout, report); err != nil {
		return err
	}
	if err := printJSON(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed or returned wrong results", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runUntraced measures the end-to-end metrics: the production configuration
// with no tracing of any kind. probe, when non-nil, sets the server up in a
// child process and returns the time.
func runUntraced(w workload, seed uint64, d time.Duration, exp *expected, probe func() (float64, error), outDir string) (result, map[string]any, error) {
	var setups []float64
	for i := 0; probe != nil && i < setupRuns-1; i++ {
		s, err := probe()
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, s)
	}
	bodies, err := requestBodies()
	if err != nil {
		return result{}, nil, err
	}
	var steal float64
	win, setup, err := measure(serverConfig(w, io.Discard, nil), w, seed, d, bodies, exp, func(*server) func() {
		s0, t0 := hostCPU()
		return func() {
			s1, t1 := hostCPU()
			steal = ratio(s1-s0, t1-t0)
		}
	})
	if err != nil {
		return result{}, nil, err
	}
	setups = append(setups, setup.Seconds())
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	lat := win.latencies()
	res := result{
		Correct: win.failed == 0, Attempted: len(win.samples), Failed: win.failed,
		Metrics: map[string]metric{
			"qps":            {finite(win.qps()), "1/s"},
			"latency_p50_ms": {finite(median(lat)), "ms"},
			tailMetric:       {finite(percentile(lat, tailQuantile)), "ms"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}
	perQuery := map[string]float64{}
	for _, q := range tpch.Queries {
		var l []float64
		for _, s := range win.samples {
			if s.query == q {
				l = append(l, s.latencyMS())
			}
		}
		perQuery[q] = finite(median(l))
	}
	type row struct {
		Query     string  `json:"query"`
		StartMS   float64 `json:"start_ms"`
		LatencyMS float64 `json:"latency_ms"`
		Error     string  `json:"error,omitempty"`
	}
	rows := make([]row, len(win.samples))
	for i, s := range win.samples {
		rows[i] = row{s.query, float64(s.start.Sub(win.start)) / float64(time.Millisecond), finite(s.latencyMS()), s.err}
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := writeTrace(path, rows); err != nil {
		return result{}, nil, err
	}
	report := map[string]any{
		"workload": w.name, "samples_file": path,
		"window_s": win.seconds(), "samples": len(win.samples),
		"samples_beyond_tail": int(float64(len(win.samples)) * (1 - tailQuantile)),
		"error_rate":          errorRate(res), "first_error": win.firstErr, "host_steal_share": steal,
		"setup_samples_s": setups, "query_p50_ms": perQuery,
		"latency_ms": map[string]float64{
			"p50": finite(median(lat)), "p75": finite(percentile(lat, 0.75)), "p80": finite(percentile(lat, 0.8)),
			"p90": finite(percentile(lat, 0.9)), "p95": finite(percentile(lat, 0.95)),
		},
	}
	return res, report, nil
}

// tailMetric is the latency tail reported with the median: the highest
// percentile with at least ten samples beyond it on the slowest workload
// (hot-sf1 completes about 56 queries in a 25 s window).
const (
	tailMetric   = "latency_p80_ms"
	tailQuantile = 0.8
)

func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// finite maps the +Inf of failed requests (and the NaN of an empty window) to
// the largest float, which JSON can carry and which reads as worst.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostCPU reads the CPU time the hypervisor stole from this machine and the
// total CPU time, in clock ticks, from /proc/stat. A run with a high steal
// share ran on a disturbed host. Zero when unavailable.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// allMain runs every workload in its own child process and prints its
// metrics by name with units. It fails if any run fails or any result was
// wrong.
func allMain(seed uint64, seconds int, traced bool) error {
	trace := "0"
	if traced {
		trace = "1"
	}
	var failed []string
	for _, w := range workloads {
		out, err := child("-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || res.Metrics == nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		if err != nil || !res.Correct {
			failed = append(failed, fmt.Sprintf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted))
		}
		fmt.Printf("%s  (attempted %d, failed %d, correct %v)\n", w.name, res.Attempted, res.Failed, res.Correct)
		if !traced {
			fmt.Printf("  %-36s %14.6g %s\n", "error_rate", errorRate(res), "ratio")
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
