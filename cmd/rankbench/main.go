// Command rankbench regenerates the tables and figures of the thesis'
// evaluation chapters.
//
// Usage:
//
//	rankbench -list                 # enumerate experiments, in thesis order
//	rankbench -exp fig3.4           # run one experiment
//	rankbench -exp fig3.4,fig4.12   # run several
//	rankbench -all                  # run everything
//	rankbench -all -scale 0.05      # smaller datasets (default 0.1× thesis)
//	rankbench -all -queries 20      # queries averaged per point (default 10)
//	rankbench -all -http :8080      # live observability while running
//	rankbench -chaos 5s             # seeded serving-chaos run (invariant check)
//
// With -http, the process serves /metrics (the rankcube registry as plain
// text), /debug/vars (expvar JSON, registry included), and /debug/pprof/*
// for CPU and heap profiling while experiments run.
//
// Output per experiment is the table the thesis plots — one column per
// series, in the metric the header names — and under it one row per measured
// point with the whole triple: CPU ms, governed block reads (total and per
// structure) and the modelled ms that combines them at 0.1 ms per read, plus
// states generated and peak heap. Build-time and size figures print the one
// table. Absolute numbers depend on hardware and scale; the shapes are the
// reproduction target, and internal/bench's TestPaperVerdicts asserts them.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rankcube"
	"rankcube/internal/bench"
	"rankcube/internal/chaos"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		exp     = flag.String("exp", "", "comma-separated experiment ids to run")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0.1, "dataset scale relative to the thesis row counts")
		queries = flag.Int("queries", 10, "random queries averaged per data point")
		seed    = flag.Int64("seed", 1, "workload seed")
		httpAdr = flag.String("http", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while running")
		chaosFl = flag.Duration("chaos", 0, "run the seeded serving-chaos harness for this duration instead of experiments")
	)
	flag.Parse()

	if *chaosFl > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		rep, err := chaos.Run(ctx, chaos.Config{Seed: *seed, Duration: *chaosFl})
		if rep != nil {
			fmt.Println(rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rankbench: chaos interrupted: %v\n", err)
			os.Exit(130)
		}
		if err := rep.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "rankbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("chaos: all serving invariants held")
		return
	}

	if *httpAdr != "" {
		rankcube.PublishExpvar()
		mux := http.NewServeMux()
		mux.Handle("/metrics", rankcube.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*httpAdr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "rankbench: http server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rankbench: observability on http://%s/metrics (+ /debug/vars, /debug/pprof)\n", *httpAdr)
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	var ids []string
	switch {
	case *all:
		ids = bench.IDs()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	default:
		fmt.Fprintln(os.Stderr, "rankbench: pass -exp <id>[,<id>…], -all, or -list")
		os.Exit(2)
	}

	// SIGINT/SIGTERM propagate into every query's context: its execution
	// context (stats.Governed) aborts in-flight searches at block-read
	// granularity and the partial report still prints. A second signal
	// kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.Run(ctx, id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rankbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		fmt.Printf("(experiment wall time %.1fs)\n\n", time.Since(start).Seconds())
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "rankbench: interrupted — results above are partial")
			os.Exit(130)
		}
	}
}
