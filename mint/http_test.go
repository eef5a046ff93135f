package mint_test

// OTLP/JSON golden tests for the HTTP ingestion endpoint: recorded OTel
// SDK-shaped payloads (testdata/otlp_*.json) POSTed to /v1/traces must
// produce exactly the patterns, parameters and query answers that directly
// Capture-ing the equivalent traces produces, and the decoded span mapping
// itself is pinned by a committed golden snapshot
// (testdata/otlp_decoded.golden).

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/otlp"
	"repro/mint"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden snapshots")

// goldenPayloads lists the recorded payload files and the node each was
// exported from.
var goldenPayloads = []struct {
	file string
	node string
}{
	{"otlp_node1.json", "node-1"},
	{"otlp_node2.json", "node-2"},
}

func readPayload(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return b
}

// decodedTraces decodes every golden payload and regroups the spans into
// complete traces (the form Capture ingests), preserving first-seen order.
func decodedTraces(t *testing.T) []*mint.Trace {
	t.Helper()
	byID := map[string]*mint.Trace{}
	var order []*mint.Trace
	for _, p := range goldenPayloads {
		spans, err := otlp.Decode(readPayload(t, p.file), p.node)
		if err != nil {
			t.Fatalf("decode %s: %v", p.file, err)
		}
		for _, sp := range spans {
			tr, ok := byID[sp.TraceID]
			if !ok {
				tr = &mint.Trace{TraceID: sp.TraceID}
				byID[sp.TraceID] = tr
				order = append(order, tr)
			}
			tr.Spans = append(tr.Spans, sp)
		}
	}
	return order
}

// TestOTLPDecodeGolden pins the OTLP→Mint span mapping: the canonical
// serialization of every decoded span must match the committed snapshot.
// Run with -update-golden after an intentional mapping change.
func TestOTLPDecodeGolden(t *testing.T) {
	var b strings.Builder
	for _, tr := range decodedTraces(t) {
		for _, sp := range tr.Spans {
			b.WriteString(sp.Serialize())
			b.WriteByte('\n')
		}
	}
	goldenPath := filepath.Join("testdata", "otlp_decoded.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if b.String() != string(want) {
		t.Fatalf("decoded spans diverged from golden snapshot:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestOTLPEndpointMatchesDirectCapture is the golden parity test: POSTing
// the recorded payloads to the HTTP endpoint must leave the backend in
// exactly the state direct Capture of the equivalent traces produces —
// same patterns, same params, same query answers, same storage accounting.
func TestOTLPEndpointMatchesDirectCapture(t *testing.T) {
	nodes := []string{"node-1", "node-2"}

	// Deployment A: the HTTP endpoint.
	viaHTTP := mint.NewCluster(nodes, mint.Defaults())
	defer viaHTTP.Close()
	handler := mint.NewHTTPHandler(viaHTTP, "node-1")
	srv := httptest.NewServer(handler)
	defer srv.Close()

	for _, p := range goldenPayloads {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/traces", bytes.NewReader(readPayload(t, p.file)))
		if err != nil {
			t.Fatalf("build request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Mint-Node", p.node)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", p.file, err)
		}
		body := make([]byte, 256)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", p.file, resp.StatusCode, body[:n])
		}
		if !strings.Contains(string(body[:n]), "partialSuccess") {
			t.Fatalf("POST %s: unexpected body %q", p.file, body[:n])
		}
	}
	viaHTTP.Flush()

	// Deployment B: direct Capture of the equivalent traces.
	direct := mint.NewCluster(nodes, mint.Defaults())
	defer direct.Close()
	traces := decodedTraces(t)
	for _, tr := range traces {
		if err := direct.Capture(tr); err != nil {
			t.Fatalf("Capture: %v", err)
		}
	}
	direct.Flush()

	// Patterns and storage accounting must agree exactly.
	if w, g := direct.SpanPatternCount(), viaHTTP.SpanPatternCount(); w != g {
		t.Fatalf("span patterns: direct %d, via HTTP %d", w, g)
	}
	if w, g := direct.TopoPatternCount(), viaHTTP.TopoPatternCount(); w != g {
		t.Fatalf("topo patterns: direct %d, via HTTP %d", w, g)
	}
	wp, wb, wpar := direct.StorageBreakdown()
	gp, gb, gpar := viaHTTP.StorageBreakdown()
	if wp != gp || wb != gb || wpar != gpar {
		t.Fatalf("storage breakdown: direct (%d,%d,%d), via HTTP (%d,%d,%d)", wp, wb, wpar, gp, gb, gpar)
	}

	// Every trace answers byte-identically, sampling reasons included.
	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	assertSameAnswers(t, "via HTTP", direct, viaHTTP, ids)
}

// TestOTLPEndpointErrors pins the endpoint's failure responses and the ops
// surface (/healthz, /metricsz).
func TestOTLPEndpointErrors(t *testing.T) {
	cluster := mint.NewCluster([]string{"node-1"}, mint.Defaults())
	handler := mint.NewHTTPHandler(cluster, "node-1")
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := new(strings.Builder)
		b := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(b)
			buf.Write(b[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// Malformed JSON → 400.
	resp, err := http.Post(srv.URL+"/v1/traces", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed payload: status %d, want 400", resp.StatusCode)
	}

	// Unknown node → 400.
	payload := readPayload(t, "otlp_node2.json")
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/traces?node=nope", bytes.NewReader(payload))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown node: status %d, want 400", resp.StatusCode)
	}

	// GET on the ingest path → 405.
	if code, _ := get("/v1/traces"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/traces: status %d, want 405", code)
	}

	// A good payload through the default node, then metrics reflect it.
	resp, err = http.Post(srv.URL+"/v1/traces", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good payload: status %d", resp.StatusCode)
	}
	code, metrics := get("/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	for _, want := range []string{
		"mint_otlp_requests_total 3",
		"mint_otlp_errors_total 2",
		"mint_otlp_spans_total 2",
		"mint_span_patterns",
		`mint_storage_bytes{kind="total"}`,
		"mint_backend_shards 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, metrics)
		}
	}

	// Draining: healthz → 503 (stop routing here), ingest → 429 with a
	// Retry-After (exporters back off and resend), queries keep answering.
	handler.SetDraining(true)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz while draining: %d %q, want 503 draining", code, body)
	}
	resp, err = http.Post(srv.URL+"/v1/traces", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST while draining: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest while draining: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed carried no Retry-After hint")
	}
	code, metrics = get("/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz while draining: status %d (a drain is not an outage for reads)", code)
	}
	for _, want := range []string{"mint_draining 1", "mint_otlp_shed_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metricsz missing %q while draining:\n%s", want, metrics)
		}
	}
	handler.SetDraining(false)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain cleared: status %d, want 200", code)
	}

	// Closed cluster: ingest → 503, healthz → 503.
	cluster.Close()
	resp, err = http.Post(srv.URL+"/v1/traces", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST after close: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close: status %d, want 503", resp.StatusCode)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: status %d, want 503", code)
	}
}
