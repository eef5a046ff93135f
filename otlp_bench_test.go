package repro

// OTLP front-door ingestion benchmarks: the same Online Boutique workload
// pre-encoded as per-node OTLP export payloads, ingested through the
// protobuf wire walker (pooled decode scratch + interning) and through the
// JSON decoder. The protobuf path's allocs/op is the number under budget in
// CI (tools/benchbudget); the JSON number is the comparison baseline:
//
//	go test -bench='BenchmarkOTLPIngest(Proto|JSON|PerHost)$' -benchmem
//
// Payloads are grouped per (trace, node) — what one node's SDK exporter
// would batch — so allocs/op is per-payload, a handful of spans each, except
// in BenchmarkOTLPIngestPerHost, whose op is one whole trace.

import (
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

// otlpBatch is one pre-encoded export payload and the node it ingests as.
type otlpBatch struct {
	node    string
	payload []byte
}

// benchOTLPSetup builds a warmed cluster and n traces pre-encoded as
// per-node OTLP payloads in the chosen encoding, one batch list per trace in
// the order its nodes first appear.
func benchOTLPSetup(b *testing.B, proto bool, n int) (*mint.Cluster, [][]otlpBatch) {
	b.Helper()
	sys := sim.OnlineBoutique(1)
	cluster := mint.NewCluster(sys.Nodes, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 300))
	traces := sim.GenTraces(sys, n)
	// Real OTLP IDs are binary (hex on the query surface); the simulator's
	// readable IDs are not, so re-key them as the hex of their bytes — the
	// same mapping for both encodings, keeping the comparison span-identical.
	hexID := func(s string) string { return hex.EncodeToString([]byte(s)) }
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			sp.TraceID, sp.SpanID = hexID(sp.TraceID), hexID(sp.SpanID)
			if sp.ParentID != "" {
				sp.ParentID = hexID(sp.ParentID)
			}
		}
	}
	var perTrace [][]otlpBatch
	for _, tr := range traces {
		byNode := map[string][]*mint.Span{}
		var order []string
		for _, sp := range tr.Spans {
			if _, ok := byNode[sp.Node]; !ok {
				order = append(order, sp.Node)
			}
			byNode[sp.Node] = append(byNode[sp.Node], sp)
		}
		var batches []otlpBatch
		for _, node := range order {
			var payload []byte
			var err error
			if proto {
				payload, err = mint.EncodeOTLPProto(byNode[node])
			} else {
				payload, err = mint.EncodeOTLP(byNode[node])
			}
			if err != nil {
				b.Fatalf("encode: %v", err)
			}
			batches = append(batches, otlpBatch{node: node, payload: payload})
		}
		perTrace = append(perTrace, batches)
	}
	return cluster, perTrace
}

// BenchmarkOTLPIngestProto measures the zero-allocation protobuf front
// door: pooled Decoder scratch, interned low-cardinality strings, arena
// spans recycled after capture. Budget-gated in CI.
func BenchmarkOTLPIngestProto(b *testing.B) {
	cluster, perTrace := benchOTLPSetup(b, true, 1024)
	batches := slices.Concat(perTrace...)
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := batches[i%len(batches)]
		if err := cluster.CaptureOTLPProto(bt.node, bt.payload); err != nil {
			b.Fatalf("CaptureOTLPProto: %v", err)
		}
	}
}

// BenchmarkOTLPIngestJSON is the same workload through the JSON decoder —
// the baseline the protobuf path is measured against (encoding/json
// allocates per span, per attribute and per string).
func BenchmarkOTLPIngestJSON(b *testing.B) {
	cluster, perTrace := benchOTLPSetup(b, false, 1024)
	batches := slices.Concat(perTrace...)
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := batches[i%len(batches)]
		if err := cluster.CaptureOTLP(bt.node, bt.payload); err != nil {
			b.Fatalf("CaptureOTLP: %v", err)
		}
	}
}

// BenchmarkOTLPIngestPerHost delivers whole traces the way per-host SDK
// exporters do: one OTLP/protobuf request per node, in the trace's node
// order, so every sub-trace that reaches its host after the trace's
// sampling notice runs the late params report. One op is one trace; up to
// 8192 distinct traces are delivered before any repeats. Budget-gated in CI.
func BenchmarkOTLPIngestPerHost(b *testing.B) {
	cluster, perTrace := benchOTLPSetup(b, true, min(b.N, 8192))
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bt := range perTrace[i%len(perTrace)] {
			if err := cluster.CaptureOTLPProto(bt.node, bt.payload); err != nil {
				b.Fatalf("CaptureOTLPProto: %v", err)
			}
		}
	}
}
