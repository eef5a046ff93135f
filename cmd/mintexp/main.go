// Command mintexp regenerates the paper's evaluation figures and tables.
//
// Cluster-backed experiments run on an in-process sharded cluster; that a
// figure does not depend on the deployment shape is the parity oracle's job
// (mint/oracle_test.go), and performance is measured by the repository
// benchmark (bench/), not here.
//
// Usage:
//
//	mintexp                          # run everything, print renders
//	mintexp -list                    # list experiment IDs
//	mintexp -run fig11,fig15         # subset by ID
//	mintexp -light                   # skip heavy experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	light := flag.Bool("light", false, "skip heavy experiments")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%-10s %s%s\n", e.ID, e.Title, heavy)
		}
		return
	}

	entries, err := selectEntries(*runIDs, *light)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mintexp:", err)
		os.Exit(2)
	}
	for _, e := range entries {
		start := time.Now()
		res := e.Run()
		fmt.Printf("-- %s (%.1fs)\n%s\n", e.ID, time.Since(start).Seconds(), res.Render())
	}
}

func selectEntries(runIDs string, light bool) ([]experiments.Entry, error) {
	if runIDs == "" {
		var out []experiments.Entry
		for _, e := range experiments.All() {
			if light && e.Heavy {
				continue
			}
			out = append(out, e)
		}
		return out, nil
	}
	var out []experiments.Entry
	for _, id := range strings.Split(runIDs, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		out = append(out, e)
	}
	return out, nil
}
