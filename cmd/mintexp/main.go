// Command mintexp regenerates the paper's evaluation figures and tables
// against every deployment topology and checks that the topologies agree.
//
// Each cluster-backed experiment runs on the topologies selected with -topos
// — the in-process sharded engine ("inproc"), the durable engine reopened
// from its DataDir under a different shard count ("reopen"), and a cluster
// dialed into a loopback mintd ("remote"). Experiments that never touch a
// cluster run once under the pseudo-topology "any". Performance is measured
// by the repository benchmark (bench/), not here.
//
// Usage:
//
//	mintexp                          # run everything on every topology, print renders
//	mintexp -list                    # list experiment IDs
//	mintexp -run fig11,fig15         # subset by ID
//	mintexp -topos inproc,remote     # subset by topology
//	mintexp -light                   # skip heavy experiments
//	mintexp -parity                  # exit 1 unless stable renders are
//	                                 # byte-identical across the topologies run
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
	topos := flag.String("topos", "inproc,reopen,remote", "comma-separated topologies to run cluster experiments on")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	light := flag.Bool("light", false, "skip heavy experiments")
	parity := flag.Bool("parity", false, "fail unless stable renders are byte-identical across topologies")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			scope := "any"
			if e.Cluster {
				scope = "cluster"
			}
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%-10s %-7s %s%s\n", e.ID, scope, e.Title, heavy)
		}
		return
	}

	entries, err := selectEntries(*runIDs, *light)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mintexp:", err)
		os.Exit(2)
	}
	kinds, err := selectTopos(*topos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mintexp:", err)
		os.Exit(2)
	}

	failed := false
	for _, e := range entries {
		if !e.Cluster {
			runOne(e, "any", func() *experiments.Result { return e.Run(nil) })
			continue
		}
		var names, renders []string
		for _, kind := range kinds {
			res := runOne(e, kind.String(), func() *experiments.Result { return experiments.RunOn(e, kind) })
			names = append(names, kind.String())
			renders = append(renders, res.RenderStable())
		}
		if *parity {
			for _, line := range checkParity(e.ID, names, renders) {
				fmt.Fprintln(os.Stderr, "mintexp: PARITY FAIL:", line)
				failed = true
			}
		}
	}
	if *parity {
		if failed {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mintexp: parity OK — stable renders byte-identical across %s\n", *topos)
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

func selectTopos(s string) ([]experiments.TopoKind, error) {
	var out []experiments.TopoKind
	for _, name := range strings.Split(s, ",") {
		kind, ok := experiments.ParseTopo(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown topology %q (want inproc, reopen, remote)", name)
		}
		out = append(out, kind)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no topologies selected")
	}
	return out, nil
}

// runOne runs one (experiment, topology) pair and prints its render.
func runOne(e experiments.Entry, topo string, run func() *experiments.Result) *experiments.Result {
	start := time.Now()
	res := run()
	fmt.Printf("-- %s @ %s (%.1fs)\n%s\n", e.ID, topo, time.Since(start).Seconds(), res.Render())
	return res
}

// checkParity compares an experiment's stable renders, one per topology,
// against the first and returns one message per topology that differs,
// naming the first line where it does.
func checkParity(id string, topos, renders []string) []string {
	var bad []string
	for i := 1; i < len(renders); i++ {
		if renders[i] == renders[0] {
			continue
		}
		want := strings.Split(renders[0], "\n")
		got := strings.Split(renders[i], "\n")
		n := 0
		for n < len(want) && n < len(got) && want[n] == got[n] {
			n++
		}
		line := func(lines []string) string {
			if n < len(lines) {
				return fmt.Sprintf("%q", lines[n])
			}
			return "end of render"
		}
		bad = append(bad, fmt.Sprintf("%s: %s and %s differ at line %d: %s != %s",
			id, topos[0], topos[i], n+1, line(want), line(got)))
	}
	return bad
}
