package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// The driver's contract file. `bench contract` prints BENCHMARK.json from
// the tables in metrics.go and workloads.go, so the file at the repository
// root is generated, never typed; a test fails when the two drift apart.

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

func buildContract() contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{d.Name, d.Unit, d.Better, nil})
	}
	return c
}

func contractMain(stdout io.Writer) int {
	data, err := json.MarshalIndent(buildContract(), "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
