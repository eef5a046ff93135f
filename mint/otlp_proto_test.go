package mint_test

// OTLP/protobuf front-door tests: the committed binary fixtures
// (testdata/otlp_*.pb, regenerate with -update-golden) are the protobuf
// twins of the recorded OTLP/JSON payloads, and every path that ingests
// them — pb.Decode, POST /v1/traces with application/x-protobuf, the
// gRPC-framed TraceService/Export, and CaptureOTLPProto against a remote
// store — must leave the cluster byte-identical to the JSON equivalent.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/otlp"
	"repro/internal/otlp/pb"
	"repro/mint"
)

// protoFixtureName maps a JSON fixture file to its protobuf twin.
func protoFixtureName(jsonName string) string {
	return strings.TrimSuffix(jsonName, ".json") + ".pb"
}

// protoPayload reads one committed .pb fixture; with -update-golden it is
// first regenerated from the JSON fixture: the recorded payload is parsed
// into the OTLP export shape (keeping the resource attributes Mint ignores,
// like telemetry.sdk.*), re-encoded as protobuf, and suffixed with an
// unknown top-level field a future OTLP revision might add — the decoder
// must skip it.
func protoPayload(t *testing.T, jsonName string) []byte {
	t.Helper()
	path := filepath.Join("testdata", protoFixtureName(jsonName))
	if *updateGolden {
		var ex otlp.Export
		if err := json.Unmarshal(readPayload(t, jsonName), &ex); err != nil {
			t.Fatalf("parse %s: %v", jsonName, err)
		}
		payload, err := pb.AppendExport(nil, &ex)
		if err != nil {
			t.Fatalf("encode %s: %v", jsonName, err)
		}
		payload = pb.AppendStringField(payload, 999, "reserved for future otlp revisions")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatalf("update fixture: %v", err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update-golden to create): %v", err)
	}
	return b
}

// TestOTLPProtoFixturesMatchJSON pins the committed binary fixtures: each
// must decode to exactly the spans its JSON twin decodes to.
func TestOTLPProtoFixturesMatchJSON(t *testing.T) {
	for _, p := range goldenPayloads {
		fromJSON, err := otlp.Decode(readPayload(t, p.file), p.node)
		if err != nil {
			t.Fatalf("decode %s: %v", p.file, err)
		}
		fromPB, err := pb.Decode(protoPayload(t, p.file), p.node)
		if err != nil {
			t.Fatalf("decode %s: %v", protoFixtureName(p.file), err)
		}
		if len(fromPB) != len(fromJSON) {
			t.Fatalf("%s: %d spans via protobuf, %d via JSON", p.file, len(fromPB), len(fromJSON))
		}
		for i := range fromPB {
			if got, want := fromPB[i].Serialize(), fromJSON[i].Serialize(); got != want {
				t.Fatalf("%s span %d diverged:\nprotobuf: %s\njson:     %s", p.file, i, got, want)
			}
		}
	}
}

// postPayload POSTs one ingest payload and fails the test on a non-200.
func postPayload(t *testing.T, url, contentType, node string, payload []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/traces", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Mint-Node", node)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", contentType, resp.StatusCode, body)
	}
}

// TestOTLPProtoEndpointParity is the tentpole acceptance test: the recorded
// payloads POSTed as protobuf must leave the backend byte-identical to the
// same payloads POSTed as JSON and to direct Capture of the decoded traces
// — same patterns, same query answers, same analysis, same search results.
func TestOTLPProtoEndpointParity(t *testing.T) {
	nodes := []string{"node-1", "node-2"}

	direct := mint.NewCluster(nodes, mint.Defaults())
	defer direct.Close()
	traces := decodedTraces(t)
	for _, tr := range traces {
		if err := direct.Capture(tr); err != nil {
			t.Fatalf("Capture: %v", err)
		}
	}
	direct.Flush()

	viaJSON := mint.NewCluster(nodes, mint.Defaults())
	defer viaJSON.Close()
	jsonSrv := httptest.NewServer(mint.NewHTTPHandler(viaJSON, "node-1"))
	defer jsonSrv.Close()

	viaProto := mint.NewCluster(nodes, mint.Defaults())
	defer viaProto.Close()
	protoSrv := httptest.NewServer(mint.NewHTTPHandler(viaProto, "node-1"))
	defer protoSrv.Close()

	for _, p := range goldenPayloads {
		postPayload(t, jsonSrv.URL, "application/json", p.node, readPayload(t, p.file))
		postPayload(t, protoSrv.URL, "application/x-protobuf", p.node, protoPayload(t, p.file))
	}
	viaJSON.Flush()
	viaProto.Flush()

	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	assertSameAnswers(t, "proto vs direct", direct, viaProto, ids)
	assertSameAnswers(t, "proto vs json", viaJSON, viaProto, ids)
}

// TestOTLPProtoRemoteCapture wires CaptureOTLPProto through a dialed
// cluster: the same payloads ingested against a mintd-shaped loopback
// server must answer byte-identically to local ingestion.
func TestOTLPProtoRemoteCapture(t *testing.T) {
	nodes := []string{"node-1", "node-2"}

	local := mint.NewCluster(nodes, mint.Defaults())
	defer local.Close()

	server := startMintd(t, t.TempDir(), 2)
	defer server.stop(t)
	remote, err := mint.Dial(server.addr, nodes, mint.Defaults())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	for _, p := range goldenPayloads {
		payload := protoPayload(t, p.file)
		if err := local.CaptureOTLPProto(p.node, payload); err != nil {
			t.Fatalf("local CaptureOTLPProto: %v", err)
		}
		if err := remote.CaptureOTLPProto(p.node, payload); err != nil {
			t.Fatalf("remote CaptureOTLPProto: %v", err)
		}
	}
	local.Flush()
	remote.Flush()

	var ids []string
	for _, tr := range decodedTraces(t) {
		ids = append(ids, tr.TraceID)
	}
	assertSameAnswers(t, "remote vs local", local, remote, ids)
}

// gzipBytes compresses b.
func gzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOTLPHTTPHardening pins the front door's defenses: unsupported
// content types are 415, oversized payloads are 413 (including after gzip
// expansion), and well-formed gzip bodies ingest in both encodings.
func TestOTLPHTTPHardening(t *testing.T) {
	cluster := mint.NewCluster([]string{"node-1", "node-2"}, mint.Defaults())
	defer cluster.Close()
	handler := mint.NewHTTPHandler(cluster, "node-1")
	srv := httptest.NewServer(handler)
	defer srv.Close()

	post := func(path, contentType, encoding string, payload []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	jsonPayload := readPayload(t, "otlp_node1.json")
	protoFix := protoPayload(t, "otlp_node1.json")

	t.Run("unsupported content type is 415", func(t *testing.T) {
		for _, ct := range []string{"text/plain", "application/xml", "application/grpc"} {
			if resp := post("/v1/traces", ct, "", jsonPayload); resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
			}
		}
	})

	t.Run("content type parameters accepted", func(t *testing.T) {
		if resp := post("/v1/traces", "application/json; charset=utf-8", "", jsonPayload); resp.StatusCode != http.StatusOK {
			t.Fatalf("parameterized content type: status %d", resp.StatusCode)
		}
	})

	t.Run("gzip json body", func(t *testing.T) {
		if resp := post("/v1/traces", "application/json", "gzip", gzipBytes(t, jsonPayload)); resp.StatusCode != http.StatusOK {
			t.Fatalf("gzip json: status %d", resp.StatusCode)
		}
	})

	t.Run("gzip protobuf body", func(t *testing.T) {
		if resp := post("/v1/traces", "application/x-protobuf", "gzip", gzipBytes(t, protoFix)); resp.StatusCode != http.StatusOK {
			t.Fatalf("gzip protobuf: status %d", resp.StatusCode)
		}
	})

	t.Run("corrupt gzip is 400", func(t *testing.T) {
		if resp := post("/v1/traces", "application/json", "gzip", []byte("not gzip at all")); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("corrupt gzip: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unsupported encoding is 415", func(t *testing.T) {
		if resp := post("/v1/traces", "application/json", "br", jsonPayload); resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("brotli: status %d, want 415", resp.StatusCode)
		}
	})

	t.Run("oversized body is 413", func(t *testing.T) {
		small := mint.NewCluster([]string{"node-1"}, mint.Defaults())
		defer small.Close()
		h := mint.NewHTTPHandler(small, "node-1")
		h.SetMaxBody(64)
		bounded := httptest.NewServer(h)
		defer bounded.Close()

		resp, err := http.Post(bounded.URL+"/v1/traces", "application/json", bytes.NewReader(jsonPayload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized: status %d, want 413", resp.StatusCode)
		}

		// A tiny compressed body that expands past the bound is still 413:
		// the decompressed size is what counts.
		bomb := gzipBytes(t, bytes.Repeat([]byte(" "), 100_000))
		if len(bomb) >= 1000 {
			t.Fatalf("bomb did not compress: %d bytes", len(bomb))
		}
		h.SetMaxBody(1000)
		req, _ := http.NewRequest(http.MethodPost, bounded.URL+"/v1/traces", bytes.NewReader(bomb))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Content-Encoding", "gzip")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("gzip expansion: status %d, want 413", resp.StatusCode)
		}
	})
}

// grpcFrame wraps a protobuf message in the gRPC wire framing (compression
// flag + big-endian length prefix).
func grpcFrame(payload []byte) []byte {
	frame := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(frame[1:], uint32(len(payload)))
	copy(frame[5:], payload)
	return frame
}

// grpcExport POSTs one gRPC-framed Export call and returns the HTTP
// response, its body, and the grpc-status trailer.
func grpcExport(t *testing.T, url, node string, frame []byte) (*http.Response, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost,
		url+"/opentelemetry.proto.collector.trace.v1.TraceService/Export", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/grpc")
	if node != "" {
		req.Header.Set("X-Mint-Node", node)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) // trailers arrive after the body drains
	resp.Body.Close()
	return resp, body, resp.Trailer.Get("Grpc-Status")
}

// TestOTLPGRPCExport drives the gRPC-framed Export method over HTTP/1.1
// chunked trailers (the handler is transport-agnostic; mintd adds
// cleartext HTTP/2 for real gRPC clients) and pins parity with the plain
// protobuf POST path.
func TestOTLPGRPCExport(t *testing.T) {
	nodes := []string{"node-1", "node-2"}

	viaGRPC := mint.NewCluster(nodes, mint.Defaults())
	defer viaGRPC.Close()
	grpcSrv := httptest.NewServer(mint.NewHTTPHandler(viaGRPC, "node-1"))
	defer grpcSrv.Close()

	viaPost := mint.NewCluster(nodes, mint.Defaults())
	defer viaPost.Close()
	postSrv := httptest.NewServer(mint.NewHTTPHandler(viaPost, "node-1"))
	defer postSrv.Close()

	for _, p := range goldenPayloads {
		payload := protoPayload(t, p.file)
		resp, body, status := grpcExport(t, grpcSrv.URL, p.node, grpcFrame(payload))
		if resp.StatusCode != http.StatusOK || status != "0" {
			t.Fatalf("%s: http %d grpc-status %q", p.file, resp.StatusCode, status)
		}
		// The success body is one empty ExportTraceServiceResponse frame.
		if !bytes.Equal(body, []byte{0, 0, 0, 0, 0}) {
			t.Fatalf("%s: response body % x", p.file, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/grpc" {
			t.Fatalf("%s: content type %q", p.file, ct)
		}
		postPayload(t, postSrv.URL, "application/x-protobuf", p.node, payload)
	}
	viaGRPC.Flush()
	viaPost.Flush()

	var ids []string
	for _, tr := range decodedTraces(t) {
		ids = append(ids, tr.TraceID)
	}
	assertSameAnswers(t, "grpc vs post", viaPost, viaGRPC, ids)

	t.Run("compressed flag is unimplemented", func(t *testing.T) {
		frame := grpcFrame([]byte{})
		frame[0] = 1
		_, _, status := grpcExport(t, grpcSrv.URL, "node-1", frame)
		if status != "12" {
			t.Fatalf("grpc-status %q, want 12 (unimplemented)", status)
		}
	})

	t.Run("truncated frame is invalid argument", func(t *testing.T) {
		frame := grpcFrame(protoPayload(t, "otlp_node1.json"))
		_, _, status := grpcExport(t, grpcSrv.URL, "node-1", frame[:len(frame)-10])
		if status != "3" {
			t.Fatalf("grpc-status %q, want 3 (invalid argument)", status)
		}
	})

	t.Run("malformed message is invalid argument", func(t *testing.T) {
		_, _, status := grpcExport(t, grpcSrv.URL, "node-1", grpcFrame([]byte{0x80}))
		if status != "3" {
			t.Fatalf("grpc-status %q, want 3 (invalid argument)", status)
		}
	})

	t.Run("oversized message is resource exhausted", func(t *testing.T) {
		small := mint.NewCluster(nodes, mint.Defaults())
		defer small.Close()
		h := mint.NewHTTPHandler(small, "node-1")
		h.SetMaxBody(16)
		bounded := httptest.NewServer(h)
		defer bounded.Close()
		_, _, status := grpcExport(t, bounded.URL, "node-1", grpcFrame(protoPayload(t, "otlp_node1.json")))
		if status != "8" {
			t.Fatalf("grpc-status %q, want 8 (resource exhausted)", status)
		}
	})

	t.Run("wrong content type is 415", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPost,
			grpcSrv.URL+"/opentelemetry.proto.collector.trace.v1.TraceService/Export",
			bytes.NewReader(grpcFrame(nil)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", resp.StatusCode)
		}
	})
}
