package mint_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/mint"
)

// runWorkload drives one deterministic mixed workload — direct captures
// plus OTLP/JSON ingests — through a cluster and returns the captured trace
// IDs.
func runWorkload(t *testing.T, cluster *mint.Cluster, sys *sim.System) []string {
	t.Helper()
	cluster.Warmup(sim.GenTraces(sys, 100))
	var ids []string
	for i := 0; i < 200; i++ {
		opt := sim.GenOptions{}
		if i%50 == 49 {
			opt.Fault = &sim.Fault{Type: sim.FaultException, Service: "payment", Magnitude: 120}
		}
		tr := sys.GenTrace(sys.PickAPI(), opt)
		ids = append(ids, tr.TraceID)
		if i%3 == 0 {
			// Route a third of the traffic through the OTLP front door so
			// the ingest observers fire.
			payload, err := mint.EncodeOTLP(tr.Spans)
			if err != nil {
				t.Fatalf("EncodeOTLP: %v", err)
			}
			if err := cluster.CaptureOTLP(tr.Spans[0].Node, payload); err != nil {
				t.Fatalf("CaptureOTLP: %v", err)
			}
			continue
		}
		if err := cluster.Capture(tr); err != nil {
			t.Fatalf("Capture: %v", err)
		}
	}
	if err := cluster.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return ids
}

// TestSelfTraceQueryable asserts the other half of mint-traces-mint: the
// pipeline's own stages come back out of the ordinary query surface.
func TestSelfTraceQueryable(t *testing.T) {
	sys := sim.OnlineBoutique(11)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{SelfTrace: true})
	defer cluster.Close()
	runWorkload(t, cluster, sys)

	// The first OTLP ingest observed became self trace 1: an ingest-request
	// root with decode and shard-apply children.
	res := cluster.Query("mint-self-00000001")
	if res.Kind == mint.Miss {
		t.Fatal("self trace mint-self-00000001 is a total miss")
	}
	if res.Trace == nil || len(res.Trace.Spans) != 3 {
		t.Fatalf("self trace spans = %v, want the 3-stage ingest pipeline", res.Trace)
	}
	ops := map[string]bool{}
	for _, sp := range res.Trace.Spans {
		ops[sp.Operation] = true
		if sp.Service != "mint-self" || sp.Node != "mint-self" {
			t.Fatalf("self span on %s/%s, want the reserved mint-self node", sp.Service, sp.Node)
		}
	}
	for _, want := range []string{"ingest-request", "decode", "shard-apply"} {
		if !ops[want] {
			t.Fatalf("self trace stages %v missing %q", ops, want)
		}
	}

	// Predicate search reaches self data only when asked for by service.
	found := cluster.FindTraces(mint.Filter{Service: "mint-self", Candidates: []string{"mint-self-00000001"}})
	if len(found) == 0 {
		t.Fatal("FindTraces{Service: mint-self} surfaced no self traces")
	}
	for _, ft := range found {
		if !strings.HasPrefix(ft.TraceID, "mint-self-") {
			t.Fatalf("self-service search returned foreign trace %s", ft.TraceID)
		}
	}
}

// TestDialRejectsSelfTrace: self-tracing is a backend-side concern — the
// server observes itself — so the client constructor refuses the knob.
func TestDialRejectsSelfTrace(t *testing.T) {
	_, err := mint.Dial("127.0.0.1:1", []string{"n1"}, mint.Config{SelfTrace: true})
	if err == nil || !strings.Contains(err.Error(), "SelfTrace") {
		t.Fatalf("Dial with SelfTrace: err = %v, want a config rejection naming SelfTrace", err)
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels string
	value  float64
}

func parsePromLine(t *testing.T, line string) promSample {
	t.Helper()
	rest := line
	name := rest
	labels := ""
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			t.Fatalf("unbalanced labels: %q", line)
		}
		labels = rest[i+1 : j]
		rest = name + rest[j+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		t.Fatalf("sample line %q: want `name value`", line)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		t.Fatalf("sample line %q: bad value: %v", line, err)
	}
	return promSample{name: fields[0], labels: labels, value: v}
}

// labelValue extracts one label's value from a parsed label string.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// stripLabel removes one label from a label string (bucket grouping).
func stripLabel(labels, key string) string {
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, part := range parts {
		if k, _, ok := strings.Cut(part, "="); ok && k == key {
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, ",")
}

// TestMetricsExpositionLint scrapes /metricsz after a real workload and
// strictly lints the exposition: every series sits under a # HELP / # TYPE
// preamble for its family, counters use `_total` names (and nothing else
// does), and histogram families are structurally valid — cumulative
// buckets, a +Inf bucket equal to _count, and a _sum — with at least six
// latency families present and the pipeline ones populated.
func TestMetricsExpositionLint(t *testing.T) {
	sys := sim.OnlineBoutique(5)
	// The mintd deployment shape: durable store (WAL families) plus an
	// attached RPC server (per-op and queue-wait families).
	cluster := mint.NewCluster(sys.Nodes, mint.Config{DataDir: t.TempDir()})
	defer cluster.Close()
	runWorkload(t, cluster, sys)
	for _, id := range []string{"a", "b"} { // cold-query histogram traffic
		_ = cluster.Query(id)
	}

	handler := mint.NewHTTPHandler(cluster, sys.Nodes[0])
	handler.AttachRPCServer(rpc.NewServer(cluster.Backend()))
	srv := httptest.NewServer(handler)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	helped := map[string]bool{}
	typed := map[string]string{} // family → type
	current := ""                // family of the last # TYPE line
	type key struct{ fam, labels string }
	bucketSeen := map[key][]float64{} // per labelset, bucket values in order
	infBucket := map[key]float64{}
	sumSeen := map[key]bool{}
	countSeen := map[key]float64{}

	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("HELP without text: %q", line)
			}
			helped[fields[2]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			fam, typ := fields[2], fields[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("family %s has unknown type %q", fam, typ)
			}
			if !helped[fam] {
				t.Fatalf("family %s typed before helped", fam)
			}
			if _, dup := typed[fam]; dup {
				t.Fatalf("family %s declared twice", fam)
			}
			typed[fam] = typ
			current = fam
			continue
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		}
		s := parsePromLine(t, line)
		fam := s.name
		if typed[current] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if s.name == current+suffix {
					fam = current
				}
			}
		}
		if fam != current {
			t.Fatalf("series %s outside its family block (current family %s)", s.name, current)
		}
		switch typed[fam] {
		case "counter":
			if !strings.HasSuffix(fam, "_total") {
				t.Fatalf("counter %s does not end in _total", fam)
			}
			if s.value < 0 {
				t.Fatalf("counter %s is negative: %v", fam, s.value)
			}
		case "gauge":
			if strings.HasSuffix(fam, "_total") {
				t.Fatalf("gauge %s ends in _total (reserved for counters)", fam)
			}
		case "histogram":
			switch {
			case strings.HasSuffix(s.name, "_bucket"):
				le, ok := labelValue(s.labels, "le")
				if !ok {
					t.Fatalf("bucket without le: %q", line)
				}
				k := key{fam, stripLabel(s.labels, "le")}
				if le == "+Inf" {
					infBucket[k] = s.value
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bucket bound %q unparsable: %v", le, err)
				}
				bucketSeen[k] = append(bucketSeen[k], s.value)
			case strings.HasSuffix(s.name, "_sum"):
				sumSeen[key{fam, s.labels}] = true
			case strings.HasSuffix(s.name, "_count"):
				countSeen[key{fam, s.labels}] = s.value
			default:
				t.Fatalf("histogram family %s has bare series %s", fam, s.name)
			}
		}
	}

	// Histogram structure: cumulative buckets, +Inf == _count, _sum present.
	for k, buckets := range bucketSeen {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("%s{%s}: buckets not cumulative at %d: %v", k.fam, k.labels, i, buckets)
			}
		}
		inf, ok := infBucket[k]
		if !ok {
			t.Fatalf("%s{%s}: no +Inf bucket", k.fam, k.labels)
		}
		count, ok := countSeen[k]
		if !ok {
			t.Fatalf("%s{%s}: no _count", k.fam, k.labels)
		}
		if inf != count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", k.fam, k.labels, inf, count)
		}
		if !sumSeen[k] {
			t.Fatalf("%s{%s}: no _sum", k.fam, k.labels)
		}
	}

	// The acceptance floor: at least six latency histogram families, and
	// the stages this workload exercised are populated.
	var latencyFams []string
	for fam, typ := range typed {
		if typ == "histogram" && strings.HasSuffix(fam, "_seconds") {
			latencyFams = append(latencyFams, fam)
		}
	}
	if len(latencyFams) < 6 {
		t.Fatalf("only %d latency histogram families (%v), want >= 6", len(latencyFams), latencyFams)
	}
	for _, probe := range []key{
		{"mint_ingest_decode_seconds", `encoding="json"`},
		{"mint_capture_seconds", ""},
		{"mint_shard_apply_seconds", `op="patterns"`},
		{"mint_query_seconds", `tier="cold"`},
		{"mint_wal_flush_seconds", ""},
	} {
		if countSeen[probe] == 0 {
			t.Fatalf("%s{%s}: _count is zero after the workload", probe.fam, probe.labels)
		}
	}
}

// TestSlowOpsEndpoint drives a cluster with a 1ns threshold (everything is
// slow) and asserts /debug/slowz serves the ledger as JSON.
func TestSlowOpsEndpoint(t *testing.T) {
	sys := sim.OnlineBoutique(3)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{SlowOpThreshold: time.Nanosecond})
	defer cluster.Close()
	runWorkload(t, cluster, sys)

	srv := httptest.NewServer(mint.NewHTTPHandler(cluster, sys.Nodes[0]))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/slowz")
	if err != nil {
		t.Fatalf("GET /debug/slowz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("slowz Content-Type %q", ct)
	}
	var got struct {
		ThresholdUS int64         `json:"threshold_us"`
		Total       uint64        `json:"total"`
		Ops         []mint.SlowOp `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("slowz JSON: %v", err)
	}
	if got.Total == 0 || len(got.Ops) == 0 {
		t.Fatalf("slowz recorded nothing under a 1ns threshold: %+v", got)
	}
	seen := map[string]bool{}
	for i, op := range got.Ops {
		if op.Op == "" || op.DurationUS < 0 {
			t.Fatalf("malformed slow op %+v", op)
		}
		if i > 0 && op.Seq <= got.Ops[i-1].Seq {
			t.Fatalf("slow ops out of order: %d after %d", op.Seq, got.Ops[i-1].Seq)
		}
		seen[op.Op] = true
	}
	for _, want := range []string{"capture", "apply-patterns"} {
		if !seen[want] {
			t.Fatalf("slow ops %v missing %q", seen, want)
		}
	}
}
