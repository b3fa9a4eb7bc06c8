// Command inkbench regenerates the paper's tables and figures:
//
//	inkbench -exp fig9   [-sf 0.5]   — Fig 9: relative backend throughput
//	inkbench -exp table1 [-sf 0.5]   — Table I: counter proxies for Q1/Q4
//	inkbench -exp fig10  [-sfs 0.005,0.05,0.5] — Fig 10: cross-system latency
//	inkbench -exp ablations          — DESIGN.md ablation suite
//	inkbench -exp all                — everything above
//
// Observability modes (skip the experiments):
//
//	inkbench -explain [-backend hybrid] [-queries q1,q6] — EXPLAIN ANALYZE:
//	    run each query once and print the suboperator plan annotated with
//	    measured morsel counts, busy time, compile timing and hybrid routing
//	inkbench -explain -trace          — additionally dump the full per-worker
//	    execution trace (morsel-level EWMA series of the hybrid router)
//	inkbench -metrics                 — print the engine metrics registry
//	    after whatever else ran
//	inkbench -json [-sf 0.1]          — machine-readable benchmark: every
//	    -queries query on all four backends, median wall ms / rows/sec per
//	    cell as JSON on stdout (scripts/bench.sh commits this as BENCH_*.json)
//
// Degraded measurements (a background compile failed mid-run and the
// pipeline was served vectorized-only) are flagged with '*' in every table
// and reported on stderr.
//
// Absolute numbers depend on the host; the shapes (who wins, where the
// crossovers fall) are what EXPERIMENTS.md records against the paper.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"inkfuse"
	"inkfuse/internal/benchkit"
	"inkfuse/internal/exec"
	"inkfuse/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig9 | table1 | fig10 | ablations | all")
	sf := flag.Float64("sf", 0.05, "scale factor for fig9/table1/ablations")
	sfs := flag.String("sfs", "0.005,0.05,0.5", "comma-separated scale factors for fig10")
	runs := flag.Int("runs", 3, "timing repetitions (median reported)")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	queries := flag.String("queries", "", "comma-separated query subset (default: all eight)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (e.g. 30s); expired queries fail with a typed error (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "per-query runtime-state budget in bytes; exceeding it fails the query instead of OOM-ing (0 = unlimited)")
	explain := flag.Bool("explain", false, "EXPLAIN ANALYZE mode: run each -queries query once on -backend and print the annotated plan, then exit")
	traceFlag := flag.Bool("trace", false, "with -explain: also dump the full per-worker execution trace")
	backend := flag.String("backend", "hybrid", "backend for -explain: vectorized | compiling | rof | hybrid")
	metricsFlag := flag.Bool("metrics", false, "print the engine metrics registry before exiting")
	querylogFlag := flag.Bool("querylog", false, "with -explain: emit the canonical query-log event (JSON, stderr) for each query run")
	jsonFlag := flag.Bool("json", false, "JSON mode: measure every -queries query on all four backends and write the report to stdout, then exit")
	concurrency := flag.Int("concurrency", 0, "concurrency mode: measure throughput/p99 at doubling client counts up to N through the admission-controlled scheduler (0 = off); standalone or added to -json")
	concRequests := flag.Int("conc-requests", 0, "requests per concurrency level (0 = 4 per client, min 16)")
	concMax := flag.Int("conc-max", 0, "admitted-query cap per level (0 = half the client count)")
	concQueue := flag.Int("conc-queue", 0, "admission queue depth (0 = scheduler default, negative = no queue)")
	concBackend := flag.String("conc-backend", "", "backend for the concurrency series (default vectorized)")
	flag.Parse()

	cfg := benchkit.Config{SF: *sf, Runs: *runs, Workers: *workers, Timeout: *timeout, MemBudget: *memBudget}
	if *queries != "" {
		cfg.Queries = strings.Split(*queries, ",")
	}
	cfg = cfg.WithDefaults()

	concCfg := benchkit.ConcConfig{
		Concurrency:   *concurrency,
		Requests:      *concRequests,
		MaxConcurrent: *concMax,
		QueueDepth:    *concQueue,
		Backend:       *concBackend,
	}

	if *jsonFlag {
		rep, err := benchkit.JSONBench(cfg, benchkit.Fig9Systems)
		if err == nil && *concurrency > 0 {
			rep.Concurrency, err = benchkit.ConcurrentBench(cfg, concCfg)
		}
		if err == nil {
			err = rep.Write(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *concurrency > 0 {
		fmt.Printf("# Concurrency — throughput and tail latency under concurrent clients (SF %g)\n", cfg.SF)
		cells, err := benchkit.ConcurrentBench(cfg, concCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: concurrency: %v\n", err)
			os.Exit(1)
		}
		benchkit.PrintConcurrency(os.Stdout, cells)
		if *metricsFlag {
			fmt.Print(inkfuse.MetricsText())
		}
		return
	}

	var qlog *slog.Logger
	if *querylogFlag {
		qlog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	if *explain {
		if err := explainQueries(cfg, *backend, *traceFlag, qlog); err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: explain: %v\n", err)
			os.Exit(1)
		}
		if *metricsFlag {
			fmt.Print(inkfuse.MetricsText())
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != name && *exp != "all" {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig9", func() error {
		fmt.Printf("# Fig 9 — relative throughput vs vectorized backend (SF %g, %d workers)\n", cfg.SF, cfg.Workers)
		rel, cells, err := benchkit.Fig9(cfg)
		if err != nil {
			return err
		}
		benchkit.PrintFig9(os.Stdout, rel, cfg.Queries, benchkit.DegradedCells(cells))
		fmt.Println()
		return nil
	})

	run("table1", func() error {
		fmt.Printf("# Table I — counter proxies, Q1 and Q4 (SF %g)\n", cfg.SF)
		cells, err := benchkit.Table1(cfg)
		if err != nil {
			return err
		}
		benchkit.PrintTable1(os.Stdout, cells)
		fmt.Println()
		return nil
	})

	run("fig10", func() error {
		var factors []float64
		for _, s := range strings.Split(*sfs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -sfs element %q: %w", s, err)
			}
			factors = append(factors, v)
		}
		fmt.Printf("# Fig 10 — end-to-end latency across systems and scale factors %v\n", factors)
		fmt.Println("# (compile-wait = the dashed bar areas of the paper)")
		cells, err := benchkit.Fig10(cfg, factors)
		if err != nil {
			return err
		}
		benchkit.PrintCells(os.Stdout, cells)
		fmt.Println()
		return nil
	})

	run("ablations", func() error {
		fmt.Printf("# Ablations (SF %g)\n", cfg.SF)
		if rows, err := benchkit.AblationChunkSize(cfg, "q6", []int{64, 256, 1024, 4096, 16384}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "vectorized chunk size (q6)", rows)
		}
		if rows, err := benchkit.AblationHybridExploration(cfg, "q1", []int{4, 20, 100}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "hybrid exploration period (q1)", rows)
		}
		if rows, err := benchkit.AblationKeyPacking(cfg); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "key packing shapes (compiling backend)", rows)
		}
		if rows, err := benchkit.AblationROFSplit(cfg, "q3"); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "pipeline split granularity (q3)", rows)
		}
		if rows, err := benchkit.AblationMorselSize(cfg, "q1", []int{4096, 16384, 65536}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "hybrid morsel size (q1)", rows)
		}
		return nil
	})

	if *exp == "all" || *exp == "fig9" {
		cat := tpch.Generate(cfg.SF, 42)
		fmt.Printf("# data: %s\n", benchkit.CatalogRows(cat))
	}
	if *metricsFlag {
		fmt.Println("# engine metrics")
		fmt.Print(inkfuse.MetricsText())
	}
}

// emitQueryEvent writes the canonical wide event for one completed query —
// the same shape inkserve logs — so bench runs and servers share log tooling.
func emitQueryEvent(logger *slog.Logger, query, source, backend, fingerprint string, res *inkfuse.Result, err error) {
	if logger == nil {
		return
	}
	e := exec.NewQueryEvent(res, err)
	e.Query, e.Source, e.Backend, e.Fingerprint = query, source, backend, fingerprint
	e.Emit(logger)
}

// explainQueries runs each configured query once with tracing enabled and
// prints the EXPLAIN ANALYZE rendering (plus the raw trace with -trace).
func explainQueries(cfg benchkit.Config, backendName string, dumpTrace bool, qlog *slog.Logger) error {
	be, err := inkfuse.ParseBackend(backendName)
	if err != nil {
		return err
	}
	cat := inkfuse.GenerateTPCH(cfg.SF, 42)
	for _, q := range cfg.Queries {
		node, err := inkfuse.TPCHQuery(cat, q)
		if err != nil {
			return err
		}
		out, res, err := inkfuse.ExplainAnalyze(node, q, inkfuse.Options{
			Backend:      be,
			Workers:      cfg.Workers,
			MemoryBudget: cfg.MemBudget,
		})
		emitQueryEvent(qlog, q, "plan", backendName, "", res, err)
		if out != "" {
			fmt.Print(out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		for _, w := range res.Warnings {
			fmt.Fprintf(os.Stderr, "inkbench: %s: warning: %v\n", q, w)
		}
		if dumpTrace && res.Trace != nil {
			fmt.Print(res.Trace.Dump())
		}
		fmt.Println()
	}
	return nil
}
