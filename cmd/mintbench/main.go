// Command mintbench regenerates every table and figure of the Mint paper's
// evaluation from the reproduction's simulators and frameworks.
//
// Usage:
//
//	mintbench                 # run every experiment
//	mintbench -run fig11      # run one experiment by ID
//	mintbench -list           # list experiment IDs
//	mintbench -light          # skip the heavy (multi-second) experiments
//	mintbench -workers 8      # capture-throughput benchmark: serial vs
//	                          # 8 ingest workers on a sharded backend
//	mintbench -json BENCH_remote.json
//	                          # remote-transport benchmark (loopback mintd):
//	                          # capture throughput, allocs/op, query latency,
//	                          # written as a machine-readable JSON artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/experiments"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/mint"
)

func main() {
	runID := flag.String("run", "", "run a single experiment by ID (e.g. fig11, tab4)")
	list := flag.Bool("list", false, "list available experiment IDs")
	light := flag.Bool("light", false, "skip heavy experiments")
	workers := flag.Int("workers", 0, "measure capture throughput with N ingest workers vs the serial baseline")
	shards := flag.Int("shards", 0, "backend shards for -workers (default 2×workers)")
	capTraces := flag.Int("captraces", 20000, "traces captured per run in the -workers benchmark")
	jsonOut := flag.String("json", "", "run the remote-transport benchmark against a loopback mintd and write the results as JSON to this file")
	flag.Parse()

	if *jsonOut != "" {
		if err := runRemoteBenchJSON(*jsonOut, *capTraces); err != nil {
			fmt.Fprintf(os.Stderr, "mintbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *workers > 0 {
		runCaptureBench(*workers, *shards, *capTraces)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			kind := "table"
			if e.Figure {
				kind = "figure"
			}
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%-7s %-6s %s%s\n", e.ID, kind, e.Title, heavy)
		}
		return
	}

	if *runID != "" {
		e, ok := experiments.Lookup(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "mintbench: unknown experiment %q; use -list\n", *runID)
			os.Exit(1)
		}
		runOne(e)
		return
	}

	for _, e := range experiments.All() {
		if *light && e.Heavy {
			fmt.Printf("-- skipping %s (heavy; run with -run %s)\n\n", e.ID, e.ID)
			continue
		}
		runOne(e)
	}
}

func runOne(e experiments.Entry) {
	start := time.Now()
	res := experiments.RunOn(e, experiments.TopoInProc)
	fmt.Print(res.Render())
	fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
}

// runCaptureBench compares serial capture against the concurrent sharded
// pipeline on the Online Boutique workload and prints traces/sec for both.
func runCaptureBench(workers, shards, n int) {
	if n <= 0 {
		fmt.Fprintln(os.Stderr, "mintbench: -captraces must be positive")
		os.Exit(1)
	}
	if shards <= 0 {
		shards = 2 * workers
	}
	sys := sim.OnlineBoutique(1)
	warm := sim.GenTraces(sys, 300)
	traces := sim.GenTraces(sys, n)

	serial := captureRate(sys.Nodes, mint.Defaults(), warm, traces)
	fmt.Printf("%-36s %8.0f traces/sec\n", "serial (1 goroutine, 1 shard):", serial)

	cfg := mint.Config{Shards: shards, IngestWorkers: workers}
	parallel := captureRate(sys.Nodes, cfg, warm, traces)
	fmt.Printf("%-36s %8.0f traces/sec\n",
		fmt.Sprintf("pipelined (%d workers, %d shards):", workers, shards), parallel)
	fmt.Printf("speedup: %.2fx\n", parallel/serial)
}

// runRemoteBenchJSON drives the networked deployment end to end in-process
// — a mintd-shaped loopback server and a dialed client cluster — and writes
// the measured numbers to path as JSON.
func runRemoteBenchJSON(path string, n int) error {
	if n <= 0 {
		return fmt.Errorf("-captraces must be positive")
	}
	sys := sim.OnlineBoutique(1)
	warm := sim.GenTraces(sys, 300)
	traces := sim.GenTraces(sys, n)

	server := mint.NewCluster(nil, mint.Config{Shards: 4})
	defer server.Close()
	srv := rpc.NewServer(server.Backend())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cluster, err := mint.Dial(addr.String(), sys.Nodes, mint.Defaults())
	if err != nil {
		return err
	}
	defer cluster.Close()
	cluster.Warmup(warm)

	var res benchfmt.RemoteBench
	res.Schema = benchfmt.RemoteSchema
	res.CapturedTraces = n

	start := time.Now()
	for _, t := range traces {
		if err := cluster.Capture(t); err != nil {
			return err
		}
	}
	if err := cluster.Flush(); err != nil {
		return err
	}
	res.Capture.TracesPerSec = float64(n) / time.Since(start).Seconds()

	allocRuns, i := 2000, 0
	res.Capture.AllocsPerOp = testing.AllocsPerRun(allocRuns, func() {
		_ = cluster.Capture(traces[i%len(traces)])
		i++
	})

	ids := make([]string, len(traces))
	for j, t := range traces {
		ids[j] = t.TraceID
	}
	const singleReps = 400
	start = time.Now()
	for j := 0; j < singleReps; j++ {
		_ = cluster.Query(ids[(j*17)%len(ids)])
	}
	res.Query.SingleUS = float64(time.Since(start).Microseconds()) / singleReps

	many := ids[:64]
	const manyReps = 50
	start = time.Now()
	for j := 0; j < manyReps; j++ {
		_ = cluster.QueryMany(many)
	}
	res.Query.Many64US = float64(time.Since(start).Microseconds()) / manyReps

	const markReps = 2000
	start = time.Now()
	for j := 0; j < markReps; j++ {
		cluster.MarkSampled(ids[j%len(ids)], "bench")
	}
	if err := cluster.Flush(); err != nil {
		return err
	}
	res.Mark.PerOpUS = float64(time.Since(start).Microseconds()) / markReps

	if err := cluster.Err(); err != nil {
		return fmt.Errorf("transport error: %w", err)
	}
	if err := benchfmt.WriteFile(path, &res); err != nil {
		return err
	}
	fmt.Printf("remote transport bench: %.0f traces/sec capture, %.1f allocs/op, %.0fus single query, %.0fus QueryMany(64), %.2fus mark -> %s\n",
		res.Capture.TracesPerSec, res.Capture.AllocsPerOp,
		res.Query.SingleUS, res.Query.Many64US, res.Mark.PerOpUS, path)
	return nil
}

func captureRate(nodes []string, cfg mint.Config, warm, traces []*mint.Trace) float64 {
	cluster := mint.NewCluster(nodes, cfg)
	defer cluster.Close()
	cluster.Warmup(warm)
	start := time.Now()
	for _, t := range traces {
		cluster.CaptureAsync(t)
	}
	cluster.Flush()
	return float64(len(traces)) / time.Since(start).Seconds()
}
