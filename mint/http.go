package mint

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rpc"
)

// HTTPHandler is the HTTP surface of a Mint deployment, served by mintd
// next to the binary RPC port:
//
//	POST /v1/traces — OTLP trace ingest (the standard OTLP/HTTP path), so
//	                  unmodified OpenTelemetry SDK exporters can feed the
//	                  cluster. Content-Type selects the encoding:
//	                  application/json (or none) for OTLP/JSON,
//	                  application/x-protobuf for OTLP/protobuf on the
//	                  pooled zero-allocation decode path; anything else is
//	                  415. Request bodies may be gzip-compressed
//	                  (Content-Encoding: gzip), and payloads over the
//	                  configured bound (SetMaxBody) are 413. The
//	                  originating node comes from the X-Mint-Node header
//	                  or ?node= query parameter, falling back to the
//	                  handler's default node (OTLP itself carries no host
//	                  placement).
//	POST /opentelemetry.proto.collector.trace.v1.TraceService/Export
//	                — the same protobuf ingest framed as gRPC
//	                  (TraceService/Export), for exporters configured with
//	                  the OTLP/gRPC protocol. Served over cleartext HTTP/2
//	                  when the server enables it (mintd does) and over
//	                  HTTP/1.1 chunked trailers otherwise.
//	GET  /healthz   — liveness: "ok" while the cluster is open, 503 after
//	                  Close.
//	GET  /metricsz  — operational metrics in annotated Prometheus text
//	                  format: storage and pattern accounting, metered
//	                  network bytes, OTLP request/span totals, and the
//	                  per-stage latency histograms of the telemetry
//	                  registry (decode, capture, shard apply, WAL, query,
//	                  RPC per-op). Every family carries # HELP and # TYPE.
//	GET  /debug/slowz — the slow-op ledger as JSON: operations that
//	                  exceeded Config.SlowOpThreshold, with what they were
//	                  working on (see also minttrace -slow).
type HTTPHandler struct {
	cluster     *Cluster
	defaultNode string
	mux         *http.ServeMux
	rpcSrv      *rpc.Server // optional; wires transport counters into /metricsz
	maxBody     int64

	// bodyBufs pools payload read buffers and gzips pools decompressors,
	// so the request framing allocates as little as the decode path it
	// feeds.
	bodyBufs sync.Pool
	gzips    sync.Pool

	draining atomic.Bool

	otlpRequests atomic.Int64
	otlpSpans    atomic.Int64
	otlpErrors   atomic.Int64
	otlpShed     atomic.Int64
}

// AttachRPCServer wires a transport server's counters into /metricsz, so a
// deployment fed over the RPC port (the mint.Dial topology) reports its
// ingest/query traffic there — the cluster's own byte meter only sees this
// process's collectors.
func (h *HTTPHandler) AttachRPCServer(s *rpc.Server) { h.rpcSrv = s }

// SetDraining flips the handler into (or out of) drain mode: /healthz
// answers 503 so load balancers stop routing here, and ingest answers 429
// with a Retry-After so exporters back off and resend elsewhere — or to
// this process's successor. Queries keep answering; a drain is not an
// outage for reads.
func (h *HTTPHandler) SetDraining(v bool) { h.draining.Store(v) }

// shedIngest answers an OTLP ingest request during a drain: 429 plus a
// Retry-After hint, the standard signal an OTLP exporter retries on.
// Reports whether the request was shed.
func (h *HTTPHandler) shedIngest(w http.ResponseWriter) bool {
	if !h.draining.Load() {
		return false
	}
	h.otlpShed.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "draining", http.StatusTooManyRequests)
	return true
}

// SetMaxBody bounds one ingest payload (after decompression, and per gRPC
// message) to n bytes; n <= 0 restores the default. Configure before
// serving — the bound is read without synchronization.
func (h *HTTPHandler) SetMaxBody(n int64) {
	if n <= 0 {
		n = maxOTLPBody
	}
	h.maxBody = n
}

// maxOTLPBody is the default bound on one OTLP export payload (32 MB, far
// above any sane SDK batch); mintd overrides it with -max-body.
const maxOTLPBody = 32 << 20

// grpcExportPath is the gRPC method the OTLP/gRPC exporter protocol calls.
const grpcExportPath = "/opentelemetry.proto.collector.trace.v1.TraceService/Export"

// NewHTTPHandler builds the HTTP surface over a cluster. defaultNode names
// the node OTLP payloads ingest as when the request does not say (it must
// be one of the cluster's nodes).
func NewHTTPHandler(c *Cluster, defaultNode string) *HTTPHandler {
	h := &HTTPHandler{cluster: c, defaultNode: defaultNode, mux: http.NewServeMux(), maxBody: maxOTLPBody}
	h.mux.HandleFunc("/v1/traces", h.handleOTLP)
	h.mux.HandleFunc(grpcExportPath, h.handleGRPCExport)
	h.mux.HandleFunc("/healthz", h.handleHealth)
	h.mux.HandleFunc("/metricsz", h.handleMetrics)
	h.mux.HandleFunc("/debug/slowz", h.handleSlowOps)
	return h
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// nodeOf resolves which node an OTLP request ingests as.
func (h *HTTPHandler) nodeOf(r *http.Request) string {
	if n := r.Header.Get("X-Mint-Node"); n != "" {
		return n
	}
	if n := r.URL.Query().Get("node"); n != "" {
		return n
	}
	return h.defaultNode
}

// mediaType normalizes a Content-Type header value to its bare media type.
func mediaType(v string) string {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.ToLower(strings.TrimSpace(v))
}

func (h *HTTPHandler) getBuf() *bytes.Buffer {
	if b, _ := h.bodyBufs.Get().(*bytes.Buffer); b != nil {
		b.Reset()
		return b
	}
	return &bytes.Buffer{}
}

// putBuf recycles a payload buffer, dropping outliers so one giant batch
// does not pin its backing array in the pool forever.
func (h *HTTPHandler) putBuf(b *bytes.Buffer) {
	if b.Cap() <= 4<<20 {
		h.bodyBufs.Put(b)
	}
}

// readBody reads one request payload into a pooled buffer, enforcing the
// size bound and transparently decompressing Content-Encoding: gzip (the
// decompressed size is bounded too, so a tiny bomb cannot expand past the
// limit). On error it returns the HTTP status to answer with.
func (h *HTTPHandler) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, int, error) {
	var src io.Reader = http.MaxBytesReader(w, r.Body, h.maxBody)
	gzipped := false
	switch enc := r.Header.Get("Content-Encoding"); {
	case enc == "" || strings.EqualFold(enc, "identity"):
	case strings.EqualFold(enc, "gzip"):
		gz, _ := h.gzips.Get().(*gzip.Reader)
		if gz == nil {
			gz = new(gzip.Reader)
		}
		if err := gz.Reset(src); err != nil {
			h.gzips.Put(gz)
			return nil, http.StatusBadRequest, fmt.Errorf("bad gzip body: %w", err)
		}
		defer h.gzips.Put(gz)
		src = io.LimitReader(gz, h.maxBody+1)
		gzipped = true
	default:
		return nil, http.StatusUnsupportedMediaType, fmt.Errorf("unsupported Content-Encoding %q (use gzip or identity)", enc)
	}
	buf := h.getBuf()
	if _, err := buf.ReadFrom(src); err != nil {
		h.putBuf(buf)
		// Only an actual size overrun is 413; a dropped or truncated client
		// body is the client's transient failure, not an oversized batch.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	if gzipped && int64(buf.Len()) > h.maxBody {
		h.putBuf(buf)
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("gzip body decompresses past %d bytes", h.maxBody)
	}
	return buf, 0, nil
}

// handleOTLP ingests one OTLP export payload, dispatching on Content-Type
// between the JSON and protobuf decoders.
func (h *HTTPHandler) handleOTLP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if h.shedIngest(w) {
		return
	}
	h.otlpRequests.Add(1)
	proto := false
	switch ct := mediaType(r.Header.Get("Content-Type")); ct {
	case "", "application/json":
	case "application/x-protobuf", "application/protobuf":
		proto = true
	default:
		h.otlpErrors.Add(1)
		http.Error(w, fmt.Sprintf("unsupported Content-Type %q (use application/json or application/x-protobuf)", ct),
			http.StatusUnsupportedMediaType)
		return
	}
	buf, status, err := h.readBody(w, r)
	if err != nil {
		h.otlpErrors.Add(1)
		http.Error(w, err.Error(), status)
		return
	}
	var n int
	if proto {
		n, err = h.cluster.captureOTLPProtoCounted(h.nodeOf(r), buf.Bytes())
	} else {
		n, err = h.cluster.captureOTLPCounted(h.nodeOf(r), buf.Bytes())
	}
	h.putBuf(buf)
	h.otlpSpans.Add(int64(n))
	if err != nil {
		h.otlpErrors.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	if proto {
		// The OTLP/protobuf success body: an empty ExportTraceServiceResponse,
		// which encodes as zero bytes.
		w.Header().Set("Content-Type", "application/x-protobuf")
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The OTLP/HTTP success body: a full success is an empty partialSuccess.
	_, _ = w.Write([]byte(`{"partialSuccess":{}}`))
}

// gRPC status codes the Export handler answers with.
const (
	grpcOK                = 0
	grpcInvalidArgument   = 3
	grpcResourceExhausted = 8
	grpcUnimplemented     = 12
	grpcUnavailable       = 14
)

// handleGRPCExport serves TraceService/Export: the protobuf ingest framed
// as gRPC (5-byte message prefix, status in trailers). The handler is
// transport-agnostic — real gRPC clients need the server's cleartext
// HTTP/2; anything speaking HTTP/1.1 chunked trailers works too.
func (h *HTTPHandler) handleGRPCExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if ct := mediaType(r.Header.Get("Content-Type")); ct != "application/grpc" &&
		ct != "application/grpc+proto" {
		http.Error(w, fmt.Sprintf("unsupported Content-Type %q (use application/grpc)", ct),
			http.StatusUnsupportedMediaType)
		return
	}
	h.otlpRequests.Add(1)
	// Trailers carry the status; declare them before the response starts.
	w.Header().Set("Trailer", "Grpc-Status, Grpc-Message")
	w.Header().Set("Content-Type", "application/grpc")

	if h.draining.Load() {
		// UNAVAILABLE is the status gRPC exporters retry on.
		h.otlpShed.Add(1)
		w.WriteHeader(http.StatusOK)
		w.Header().Set("Grpc-Status", strconv.Itoa(grpcUnavailable))
		w.Header().Set("Grpc-Message", "draining")
		return
	}

	buf, status, msg := h.readGRPCMessage(r)
	var n int
	if status == grpcOK {
		var err error
		n, err = h.cluster.captureOTLPProtoCounted(h.nodeOf(r), buf.Bytes())
		switch {
		case err == nil:
		case errors.Is(err, ErrClosed):
			status, msg = grpcUnavailable, err.Error()
		default:
			status, msg = grpcInvalidArgument, err.Error()
		}
	}
	if buf != nil {
		h.putBuf(buf)
	}
	h.otlpSpans.Add(int64(n))
	if status != grpcOK {
		h.otlpErrors.Add(1)
	}
	w.WriteHeader(http.StatusOK)
	if status == grpcOK {
		// Empty ExportTraceServiceResponse: one uncompressed zero-length
		// message frame.
		_, _ = w.Write([]byte{0, 0, 0, 0, 0})
	}
	w.Header().Set("Grpc-Status", strconv.Itoa(status))
	if msg != "" {
		w.Header().Set("Grpc-Message", grpcEncodeMessage(msg))
	}
}

// readGRPCMessage reads one length-prefixed gRPC message into a pooled
// buffer. On failure it returns a nil buffer and the gRPC status code plus
// message to answer with.
func (h *HTTPHandler) readGRPCMessage(r *http.Request) (*bytes.Buffer, int, string) {
	var hdr [5]byte
	if _, err := io.ReadFull(r.Body, hdr[:]); err != nil {
		return nil, grpcInvalidArgument, "short gRPC frame header"
	}
	if hdr[0] != 0 {
		return nil, grpcUnimplemented, "compressed gRPC messages are not supported"
	}
	size := int64(binary.BigEndian.Uint32(hdr[1:]))
	if size > h.maxBody {
		return nil, grpcResourceExhausted,
			fmt.Sprintf("message of %d bytes exceeds the %d byte limit", size, h.maxBody)
	}
	buf := h.getBuf()
	if n, err := buf.ReadFrom(io.LimitReader(r.Body, size)); err != nil || n != size {
		h.putBuf(buf)
		return nil, grpcInvalidArgument, "truncated gRPC message"
	}
	return buf, grpcOK, ""
}

// grpcEncodeMessage percent-encodes a grpc-message trailer value per the
// gRPC HTTP/2 spec (space and printable ASCII except % pass through).
func grpcEncodeMessage(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= ' ' && c <= '~' && c != '%' {
			b.WriteByte(c)
			continue
		}
		fmt.Fprintf(&b, "%%%02X", c)
	}
	return b.String()
}

// handleHealth answers liveness probes. A probe is not misuse, so it reads
// the closed flag directly instead of recording ErrClosed through
// checkOpen. Unhealthy states beyond closed: draining (this process is on
// its way out — stop routing new work here) and a sticky WAL I/O error
// (the cluster still answers, but its acknowledgements are no longer
// durable, which a health check must not paper over).
func (h *HTTPHandler) handleHealth(w http.ResponseWriter, r *http.Request) {
	if h.cluster.closed.Load() {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	if h.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if err := h.cluster.PersistErr(); err != nil {
		http.Error(w, "persistence: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// family writes the # HELP / # TYPE preamble for one metric family. Every
// series /metricsz serves sits under exactly one such preamble — the strict
// exposition contract TestMetricsExpositionLint pins.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// handleMetrics renders operational counters and latency histograms in
// Prometheus text exposition format (0.0.4), with HELP/TYPE annotations on
// every family and counters under `_total` names. Like handleHealth, a
// scrape is not misuse: on a closed cluster it answers 503 instead of
// recording ErrClosed through the read paths.
func (h *HTTPHandler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := h.cluster
	if c.closed.Load() {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	patterns, blooms, params := c.StorageBreakdown()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	family(w, "mint_storage_bytes", "gauge", "Stored bytes by component; kind=\"total\" is the sum of the other kinds.")
	fmt.Fprintf(w, "mint_storage_bytes{kind=\"patterns\"} %d\n", patterns)
	fmt.Fprintf(w, "mint_storage_bytes{kind=\"bloom\"} %d\n", blooms)
	fmt.Fprintf(w, "mint_storage_bytes{kind=\"params\"} %d\n", params)
	fmt.Fprintf(w, "mint_storage_bytes{kind=\"total\"} %d\n", patterns+blooms+params)
	family(w, "mint_span_patterns", "gauge", "Distinct span patterns in the store.")
	fmt.Fprintf(w, "mint_span_patterns %d\n", c.SpanPatternCount())
	family(w, "mint_topo_patterns", "gauge", "Distinct topology patterns in the store.")
	fmt.Fprintf(w, "mint_topo_patterns %d\n", c.TopoPatternCount())
	family(w, "mint_backend_shards", "gauge", "Backend store shard count.")
	fmt.Fprintf(w, "mint_backend_shards %d\n", c.Shards())
	family(w, "mint_network_bytes_total", "counter", "Metered report bytes from this process's collectors to the backend.")
	fmt.Fprintf(w, "mint_network_bytes_total %d\n", c.NetworkBytes())
	family(w, "mint_otlp_requests_total", "counter", "OTLP export requests received (all encodings).")
	fmt.Fprintf(w, "mint_otlp_requests_total %d\n", h.otlpRequests.Load())
	family(w, "mint_otlp_spans_total", "counter", "Spans ingested from OTLP export requests.")
	fmt.Fprintf(w, "mint_otlp_spans_total %d\n", h.otlpSpans.Load())
	family(w, "mint_otlp_errors_total", "counter", "OTLP export requests rejected or failed.")
	fmt.Fprintf(w, "mint_otlp_errors_total %d\n", h.otlpErrors.Load())
	family(w, "mint_otlp_shed_total", "counter", "OTLP export requests shed while draining.")
	fmt.Fprintf(w, "mint_otlp_shed_total %d\n", h.otlpShed.Load())
	family(w, "mint_draining", "gauge", "1 while the handler sheds ingest for shutdown, else 0.")
	draining := 0
	if h.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "mint_draining %d\n", draining)
	family(w, "mint_selftrace_spans_total", "counter", "Pipeline self-trace spans fed back into the capture path (0 unless -self-trace).")
	fmt.Fprintf(w, "mint_selftrace_spans_total %d\n", c.SelfTraceSpans())
	family(w, "mint_slow_ops_total", "counter", "Operations recorded by the slow-op ledger since start (see /debug/slowz).")
	fmt.Fprintf(w, "mint_slow_ops_total %d\n", c.SlowOpsTotal())
	if h.rpcSrv != nil {
		family(w, "mint_rpc_requests_total", "counter", "RPC request frames served.")
		fmt.Fprintf(w, "mint_rpc_requests_total %d\n", h.rpcSrv.Requests())
		family(w, "mint_rpc_bytes_total", "counter", "RPC transport bytes by direction.")
		fmt.Fprintf(w, "mint_rpc_bytes_total{direction=\"in\"} %d\n", h.rpcSrv.BytesIn())
		fmt.Fprintf(w, "mint_rpc_bytes_total{direction=\"out\"} %d\n", h.rpcSrv.BytesOut())
		family(w, "mint_rpc_dedup_hits_total", "counter", "Replayed envelopes suppressed by exactly-once ingest dedup.")
		fmt.Fprintf(w, "mint_rpc_dedup_hits_total %d\n", h.rpcSrv.DedupHits())
		family(w, "mint_rpc_ingest_sessions", "gauge", "Live exactly-once ingest sessions.")
		fmt.Fprintf(w, "mint_rpc_ingest_sessions %d\n", h.rpcSrv.IngestSessions())
		family(w, "mint_rpc_panics_total", "counter", "Handler panics recovered by the RPC server.")
		fmt.Fprintf(w, "mint_rpc_panics_total %d\n", h.rpcSrv.Panics())
	}
	if c.remote != nil {
		ts := c.TransportStats()
		family(w, "mint_rpc_client_redials_total", "counter", "Transport reconnects performed by the RPC client.")
		fmt.Fprintf(w, "mint_rpc_client_redials_total %d\n", ts.Redials)
		family(w, "mint_rpc_client_retries_total", "counter", "RPC calls transparently retried after a transport failure.")
		fmt.Fprintf(w, "mint_rpc_client_retries_total %d\n", ts.Retries)
		family(w, "mint_rpc_client_replayed_envelopes_total", "counter", "Unacknowledged ingest envelopes replayed after redial.")
		fmt.Fprintf(w, "mint_rpc_client_replayed_envelopes_total %d\n", ts.ReplayedEnvelopes)
		family(w, "mint_rpc_client_dropped_envelopes_total", "counter", "Ingest envelopes dropped after exhausting replay.")
		fmt.Fprintf(w, "mint_rpc_client_dropped_envelopes_total %d\n", ts.DroppedEnvelopes)
	}
	// Latency histograms: the cluster's registry (decode, capture, and — on
	// a local deployment — shard apply, WAL, query; on a remote one the
	// client call family), then the RPC server's per-op registry.
	c.Telemetry().WritePrometheus(w)
	if h.rpcSrv != nil {
		h.rpcSrv.Telemetry().WritePrometheus(w)
	}
}

// handleSlowOps serves the slow-op ledger as JSON: the active threshold,
// lifetime totals, and the retained entries (oldest first) for the cluster
// pipeline and — when an RPC server is attached — the transport.
func (h *HTTPHandler) handleSlowOps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	c := h.cluster
	if c.closed.Load() {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	type payload struct {
		ThresholdUS int64    `json:"threshold_us"`
		Total       uint64   `json:"total"`
		Ops         []SlowOp `json:"ops"`
		RPCTotal    uint64   `json:"rpc_total,omitempty"`
		RPCOps      []SlowOp `json:"rpc_ops,omitempty"`
	}
	p := payload{
		ThresholdUS: c.SlowOpThreshold().Microseconds(),
		Total:       c.SlowOpsTotal(),
		Ops:         c.SlowOps(),
	}
	if p.Ops == nil {
		p.Ops = []SlowOp{}
	}
	if h.rpcSrv != nil {
		p.RPCTotal = h.rpcSrv.SlowOps().Total()
		p.RPCOps = h.rpcSrv.SlowOps().Snapshot()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}
