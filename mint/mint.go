// Package mint is the public API of the Mint reproduction: a cost-efficient
// distributed tracing framework that captures all requests by splitting
// traces into common patterns and variable parameters ("commonality +
// variability", ASPLOS'25).
//
// The central type is Cluster: a set of per-node agents plus one backend.
// Feed it traces with Capture, flush collectors with Flush, and query any
// trace ID back with Query — sampled traces return exactly, unsampled traces
// return approximately, and nothing is ever a total miss.
//
//	cluster := mint.NewCluster([]string{"node-1", "node-2"}, mint.Defaults())
//	cluster.Warmup(warmupTraces)
//	for _, t := range traces {
//		cluster.Capture(t)
//	}
//	cluster.Flush()
//	res := cluster.Query(traces[0].TraceID)
//
// # Concurrent ingestion
//
// The ingest path is a concurrent pipeline. Config.Shards partitions the
// backend store into independently locked shards (hash-routed by pattern ID
// and trace ID) and Config.IngestWorkers starts a capture worker pool behind
// a bounded queue (back-pressure; nothing is dropped). Every report a
// collector cuts is metered and applied on the goroutine that cut it, so
// there is one report path whatever the knobs say. Capture stays synchronous
// and goroutine-safe in every mode; CaptureAsync enqueues instead of
// waiting. Flush drains the queue, and Close drains and stops the pool:
//
//	cluster := mint.NewCluster(nodes, mint.Config{Shards: 8, IngestWorkers: 8})
//	cluster.Warmup(warmupTraces)
//	for _, t := range traces {
//		cluster.CaptureAsync(t)
//	}
//	cluster.Close() // drain the worker pool
//	res := cluster.Query(traces[0].TraceID)
//
// For a fixed set of sampling decisions, storage contents, query results
// and byte accounting (NetworkBytes included) are identical to the serial
// configuration (the stores are content-addressed, so ingestion order
// cannot change them). The one order-sensitive part is the samplers
// themselves: the Symptom and Edge-Case samplers use streaming estimators
// (P² quantiles, rarity at arrival), so under concurrent interleavings
// their decisions — which traces become exact hits — can differ slightly
// from a serial run.
//
// # The query engine
//
// The read path mirrors the ingest path's scalability. Bloom probing runs
// over per-shard segment indexes keyed by (node, pattern), so a lookup
// touches each live candidate once instead of scanning every historical
// segment. Reconstructed results land in an LRU cache keyed by trace ID
// and stamped with the sum of the backend's per-shard write epochs: a cached
// result is served only while no shard has accepted a write since it was
// computed, so hot-trace re-queries and repeated BatchAnalyze sets skip
// reconstruction entirely without ever returning stale data
// (Config.QueryCacheSize; cached Traces are shared — treat them as
// read-only). QueryMany and BatchAnalyze fan out over a bounded worker
// pool (Config.QueryWorkers) with positional, deterministic results.
//
// Beyond lookup-by-ID, FindTraces answers predicate searches — service,
// operation, errors, duration bounds, sampling reason — from what the
// backend already stores: sampled traces exactly from their parameters,
// candidate IDs approximately from span/topo patterns after a targeted
// Bloom probe of only the patterns the filter could match:
//
//	found := cluster.FindTraces(mint.Filter{
//		Service:    "checkout",
//		ErrorsOnly: true,
//		Candidates: windowIDs, // unsampled traces are reachable via candidates
//	})
//	stats, _ := cluster.FindAnalyze(mint.Filter{Service: "payment"})
//
// # Durability
//
// Config.DataDir attaches a durable storage engine: the backend store
// persists to one versioned binary snapshot plus one append-only
// write-ahead log, and Open replays the directory so a reopened cluster answers
// Query/BatchAnalyze/FindTraces byte-identically to the one that wrote it.
// Flush makes everything captured so far crash-durable; Close drains the
// pipeline and then flushes, so nothing enqueued before Close is lost. Torn
// WAL tails from a crash mid-append are truncated to the last intact
// record on reopen. Config.RetentionTTL ages out stored trace data and
// Config.SnapshotEveryBytes bounds WAL growth through compaction:
//
//	cluster, err := mint.Open(nodes, mint.Config{
//		DataDir:      "/var/lib/mint",
//		RetentionTTL: 7 * 24 * time.Hour,
//	})
//	// capture ... Flush ... crash
//	reopened, err := mint.Open(nodes, mint.Config{DataDir: "/var/lib/mint"})
//	res := reopened.Query(id) // identical to the pre-crash answer
//
// # Networked deployment
//
// Dial connects the same pipeline to a mintd backend daemon (cmd/mintd)
// instead of an in-process backend: agents and collectors run locally,
// their reports ship over a binary TCP protocol, and queries are answered
// by the server — the paper's per-host-agents / central-backend topology.
// The returned Cluster behaves identically to an in-process one (the
// parity oracle pins this byte-for-byte):
//
//	cluster, err := mint.Dial("backend:9911", nodes, mint.Defaults())
//	cluster.Warmup(warmupTraces)
//	for _, t := range traces {
//		cluster.Capture(t)
//	}
//	cluster.Flush()                // server WAL is durable after this
//	res := cluster.Query(traces[0].TraceID)
//	err = cluster.Close()          // flush durable, then disconnect
//
// The transport pipelines many requests over one multiplexed connection and
// coalesces fire-and-forget report writes into sequenced, journaled
// envelope frames; every synchronous call flushes and awaits those writes
// first, so remote answers stay byte-identical to in-process ones.
//
// Backend-side knobs (Shards, DataDir, retention, query cache/workers)
// are configured on mintd and rejected by Dial. A connection that dies is
// redialed in the background and journaled reports replay exactly once;
// while it is down, queries wait for it up to a deadline, or fail at once
// when the server refuses the redial. A query that fails answers zero
// values, and Err reports the failure. After Close — local or remote —
// every operation fails with ErrClosed.
package mint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/backend"
	"repro/internal/collector"
	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/rpc"
	"repro/internal/sampler"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrClosed reports an operation on a Cluster after Close. Captures, marks
// and flushes return it; queries record it (retrievable through Err) and
// answer with zero values — closed means closed, for local and remote
// clusters alike.
var ErrClosed = errors.New("mint: cluster is closed")

// Re-exported data model types so API users never import internal packages.
type (
	// Span is a single unit of work within a trace.
	Span = trace.Span
	// Trace is a set of spans sharing a trace ID.
	Trace = trace.Trace
	// SubTrace is a trace segment generated on one node.
	SubTrace = trace.SubTrace
	// AttrValue is a span attribute value.
	AttrValue = trace.AttrValue
	// Kind classifies a span (server/client/...).
	Kind = trace.Kind
	// Status is a span outcome code.
	Status = trace.Status
	// QueryResult is the outcome of a trace query.
	QueryResult = backend.QueryResult
	// HitKind classifies a query outcome (exact/partial/miss).
	HitKind = backend.HitKind
)

// Re-exported constants.
const (
	KindInternal = trace.KindInternal
	KindServer   = trace.KindServer
	KindClient   = trace.KindClient
	StatusOK     = trace.StatusOK
	StatusError  = trace.StatusError

	Miss       = backend.Miss
	PartialHit = backend.PartialHit
	ExactHit   = backend.ExactHit
)

// Str builds a string attribute value.
func Str(s string) AttrValue { return trace.Str(s) }

// Num builds a numeric attribute value.
func Num(f float64) AttrValue { return trace.Num(f) }

// Config bundles every tunable of a Mint deployment. The zero value uses
// the paper's defaults everywhere.
type Config struct {
	// SimilarityThreshold for string clustering (default 0.8).
	SimilarityThreshold float64
	// Alpha is the numeric bucket precision (default 0.5).
	Alpha float64
	// WarmupSpans used by the offline stage (default 5000).
	WarmupSpans int
	// ParallelHAP enables concurrent attribute parsing.
	ParallelHAP bool
	// ParamsBufferBytes is the per-agent Params Buffer size (default 4 MB).
	ParamsBufferBytes int
	// BloomBufferBytes is the per-filter buffer (default 4 KB).
	BloomBufferBytes int
	// BloomFPP is the Bloom false-positive probability (default 0.01).
	BloomFPP float64
	// HeadSampleRate optionally adds hash-based head sampling (0 disables).
	HeadSampleRate float64
	// DisableSamplers turns off the Symptom and Edge-Case samplers
	// (useful for pure-compression experiments).
	DisableSamplers bool
	// Symptom and EdgeCase tune the two paradigm-native samplers.
	Symptom  sampler.SymptomConfig
	EdgeCase sampler.EdgeCaseConfig
	// Shards partitions the backend store into independently locked shards
	// (pattern state by pattern-ID hash, trace state by trace-ID hash).
	// 0 or 1 keeps the single-shard serial-equivalent backend. Storage
	// contents and byte accounting are identical for every value.
	Shards int
	// IngestWorkers starts N goroutines that drain CaptureAsync's bounded
	// queue; each applies its captures' reports inline, exactly as Capture
	// does. 0 makes CaptureAsync capture on the caller's goroutine. When
	// enabled, call Flush or Close to drain the queue.
	IngestWorkers int
	// QueryWorkers bounds the worker pool QueryMany/BatchAnalyze fan out
	// over. 0 sizes the pool to GOMAXPROCS; -1 forces serial queries (other
	// negative values are rejected by Open).
	QueryWorkers int
	// QueryCacheSize is the capacity (entries) of the backend's query-result
	// LRU, which serves repeated lookups of unchanged traces without
	// reconstruction and is invalidated by per-shard write epochs. 0 takes
	// the default (backend.DefaultQueryCacheSize); negative disables
	// caching. With the cache enabled, returned Traces are shared — treat
	// them as read-only.
	QueryCacheSize int
	// DataDir enables the durable storage engine: the backend store
	// snapshots to one versioned binary file under this directory and logs
	// mutations between snapshots to one write-ahead log, whatever the
	// shard count. On Open the directory is replayed — a cluster reopened from a DataDir answers
	// Query/FindTraces identically to the one that wrote it, including
	// after a crash (torn WAL tails are truncated to the last intact
	// record). Empty keeps the store memory-only.
	DataDir string
	// RetentionTTL drops stored Bloom segments, sampled marks and
	// parameters older than this age (pattern libraries are kept — they are
	// the tiny, deduplicated commonality). Applied by a background sweep
	// and at reopen. 0 keeps everything forever. Requires DataDir.
	RetentionTTL time.Duration
	// SnapshotEveryBytes is the WAL allowance per shard: the store's
	// snapshot is rewritten and its WAL reset once the WAL exceeds this size
	// times Shards. 0 takes backend.DefaultSnapshotEveryBytes. Requires
	// DataDir.
	SnapshotEveryBytes int64
	// SlowOpThreshold is the latency above which an operation (capture,
	// shard apply, WAL flush, query, RPC call) is recorded in the slow-op
	// ledger (SlowOps, GET /debug/slowz). 0 takes the default
	// (backend.DefaultSlowOpThreshold, 250ms); negative disables the
	// ledger. The gate is one atomic load on the hot path.
	SlowOpThreshold time.Duration
	// SelfTrace feeds the deployment's own pipeline stages (ingest-request
	// → decode → shard-apply, RPC serve, WAL flush) back into its own
	// capture path as spans under the reserved "mint-self" node, so mintd's
	// internals can be queried with the same FindTraces/Query surface it
	// serves — mint traces mint. Self data is isolated: trace IDs carry the
	// "mint-self-" prefix, Bloom probes skip self segments for ordinary
	// IDs, and predicate searches only see self spans when the filter asks
	// for Service "mint-self", so query results for real traces are
	// byte-identical with the knob on or off. Local clusters only; Dial
	// rejects it (the server owns its own self-tracing).
	SelfTrace bool
}

// Defaults returns the paper's default configuration.
func Defaults() Config { return Config{} }

func (c Config) agentConfig() agent.Config {
	return agent.Config{
		Parser: parser.Config{
			SimilarityThreshold: c.SimilarityThreshold,
			Alpha:               c.Alpha,
			WarmupSpans:         c.WarmupSpans,
			Parallel:            c.ParallelHAP,
		},
		Symptom:         c.Symptom,
		EdgeCase:        c.EdgeCase,
		ParamsBufBytes:  c.ParamsBufferBytes,
		BloomBufBytes:   c.BloomBufferBytes,
		BloomFPP:        c.BloomFPP,
		HeadSampleRate:  c.HeadSampleRate,
		DisableSamplers: c.DisableSamplers,
	}
}

// Cluster is a full Mint deployment: one agent+collector per node and a
// shared (optionally sharded) backend, with network bytes metered on every
// report. Capture, CaptureAsync, MarkSampled and Query are safe for
// concurrent use; Warmup, Flush and Close are coordination points that must
// not race with captures.
type Cluster struct {
	cfg        Config
	store      store            // report/query surface: local backend or remote transport
	local      *backend.Backend // nil for a remote (Dial) cluster
	remote     *rpc.Client      // nil for a local cluster
	meter      *wire.Meter
	nodes      []string
	collectors map[string]*collector.Collector

	ingestCh  chan *Trace    // nil when IngestWorkers == 0
	ingestWG  sync.WaitGroup // worker goroutines
	pending   sync.WaitGroup // traces enqueued but not yet fully ingested
	closed    atomic.Bool    // set by Close before the queue shuts
	closeOnce sync.Once
	closeErr  error        // the durable store's close error, set once by Close
	opErr     atomic.Value // first post-Close misuse (ErrClosed), holds error

	// capScratch pools captureOne's per-trace working state (the node
	// partition map and the sub-trace header), so the synchronous capture
	// path itself allocates nothing in steady state. Pooled, not
	// per-Cluster, because captures may run on many goroutines at once.
	capScratch sync.Pool

	// otlpDict interns the strings that repeat across OTLP/protobuf
	// payloads (service names, span names, attribute keys); otlpDecoders
	// pools the wire walkers that resolve through it, so concurrent
	// CaptureOTLPProto calls reuse decode scratch instead of allocating.
	otlpDict     *intern.Dict
	otlpDecoders sync.Pool

	// Self-observability: tel is the histogram registry (the local
	// backend's own registry, or a fresh one for a remote cluster) and
	// slow the slow-op ledger behind SlowOps and /debug/slowz. selfTr is
	// non-nil only with Config.SelfTrace.
	tel             *telemetry.Registry
	slow            *telemetry.Ledger
	selfTr          *selfTracer
	histDecodeJSON  *telemetry.Histogram
	histDecodeProto *telemetry.Histogram
	histCapture     *telemetry.Histogram
}

// captureScratch is one goroutine's reusable capture state. The byNode
// slices keep their backing arrays between traces; nothing downstream
// retains them (agents copy what they keep).
type captureScratch struct {
	byNode map[string][]*Span
	st     SubTrace
}

// NewCluster creates a deployment over the given node names. It panics if
// cfg.DataDir is set and the durable store cannot be opened — use Open to
// handle that error instead.
func NewCluster(nodes []string, cfg Config) *Cluster {
	c, err := Open(nodes, cfg)
	if err != nil {
		panic("mint: " + err.Error())
	}
	return c
}

// Open creates a deployment over the given node names. When cfg.DataDir is
// set it also attaches the durable storage engine, replaying any state a
// previous cluster persisted there — the reopen-from-disk half of crash
// recovery. The error paths are configuration validation and persistence
// I/O, so Open with a valid Config and no DataDir never fails.
func Open(nodes []string, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	b := backend.NewSharded(cfg.Alpha, shards)
	if cfg.QueryCacheSize >= 0 {
		size := cfg.QueryCacheSize
		if size == 0 {
			size = backend.DefaultQueryCacheSize
		}
		b.EnableQueryCache(size)
	}
	b.SetQueryWorkers(cfg.QueryWorkers)
	if cfg.DataDir != "" {
		err := b.OpenPersistence(backend.PersistConfig{
			Dir:                cfg.DataDir,
			RetentionTTL:       cfg.RetentionTTL,
			SnapshotEveryBytes: cfg.SnapshotEveryBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	return assemble(nodes, cfg, b, nil), nil
}

// Dial connects to a mintd backend server and returns a remote Cluster:
// agents and collectors run in this process (per-host, as the paper places
// them), while every report they emit ships over the network transport to
// the server's shared backend, and every query is answered by it. The
// returned Cluster supports the full Capture/Query/BatchAnalyze/FindTraces
// surface with the same semantics as an in-process one.
//
// Backend-side fields of cfg (Shards, QueryWorkers, QueryCacheSize,
// DataDir, RetentionTTL, SnapshotEveryBytes) configure the server's
// deployment, not the client's, and must be zero here; agent-side fields
// (parser thresholds, samplers, buffers, IngestWorkers) apply normally.
// The cluster talks to the server over one multiplexed connection, which
// is redialed in the background if it dies. Close flushes the server's
// durable store and closes the connection; the server keeps running. A
// query the transport cannot complete answers zero values, and Err reports
// the failure.
func Dial(addr string, nodes []string, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards != 0 || cfg.QueryWorkers != 0 || cfg.QueryCacheSize != 0 ||
		cfg.DataDir != "" || cfg.RetentionTTL != 0 || cfg.SnapshotEveryBytes != 0 ||
		cfg.SelfTrace {
		return nil, fmt.Errorf("mint: invalid config: backend-side fields (Shards, QueryWorkers, QueryCacheSize, DataDir, RetentionTTL, SnapshotEveryBytes, SelfTrace) are owned by the server; configure them on mintd")
	}
	cli, err := rpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return assemble(nodes, cfg, nil, cli), nil
}

// testHookStore, when set, wraps the store of every Cluster assembled; the
// parity oracle sets it (export_test.go) to tee reports into a reference.
var testHookStore func(store) store

// assemble builds a Cluster over either a local backend or a remote
// transport — everything above the store (agents, collectors, the ingest
// worker pool) is identical in both deployments, which is what keeps remote
// answers byte-identical to local ones.
func assemble(nodes []string, cfg Config, b *backend.Backend, cli *rpc.Client) *Cluster {
	var st store
	if cli != nil {
		st = cli
	} else {
		st = b
	}
	if testHookStore != nil {
		st = testHookStore(st)
	}
	m := wire.NewMeter()
	c := &Cluster{
		cfg:        cfg,
		store:      st,
		local:      b,
		remote:     cli,
		meter:      m,
		nodes:      append([]string(nil), nodes...),
		collectors: map[string]*collector.Collector{},
		otlpDict:   intern.NewDict(),
	}
	threshold := cfg.SlowOpThreshold
	if threshold == 0 {
		threshold = backend.DefaultSlowOpThreshold
	} else if threshold < 0 {
		threshold = 0 // Ledger semantics: <= 0 disables.
	}
	if b != nil {
		// A local cluster shares the backend's registry and ledger, so
		// shard-apply/WAL/query timings and the cluster-level decode/capture
		// timings land in one scrape.
		c.tel = b.Telemetry()
		c.slow = b.SlowOps()
		c.slow.SetThreshold(threshold)
	} else {
		c.tel = telemetry.NewRegistry()
		c.slow = telemetry.NewLedger(0, threshold)
		cli.Instrument(c.tel, c.slow)
	}
	c.histDecodeJSON = c.tel.Histogram("mint_ingest_decode_seconds", `encoding="json"`,
		"OTLP payload decode latency by wire encoding, before the capture path runs.")
	c.histDecodeProto = c.tel.Histogram("mint_ingest_decode_seconds", `encoding="proto"`,
		"OTLP payload decode latency by wire encoding, before the capture path runs.")
	c.histCapture = c.tel.Histogram("mint_capture_seconds", "",
		"Full trace capture latency: per-node partition, agent parse, collector report, sampling fan-out.")
	for _, n := range nodes {
		c.collectors[n] = collector.New(agent.New(n, cfg.agentConfig()), st, m)
	}
	if cfg.SelfTrace && b != nil {
		// The self node is hidden: not in c.nodes (captureOne never routes
		// user spans to it).
		sa := agent.New(telemetry.SelfNode, cfg.agentConfig())
		c.selfTr = newSelfTracer(collector.New(sa, st, m))
	}
	if cfg.IngestWorkers > 0 {
		c.ingestCh = make(chan *Trace, 2*cfg.IngestWorkers)
		c.ingestWG.Add(cfg.IngestWorkers)
		for i := 0; i < cfg.IngestWorkers; i++ {
			go func() {
				defer c.ingestWG.Done()
				for t := range c.ingestCh {
					c.captureOne(t)
					c.pending.Done()
				}
			}()
		}
	}
	return c
}

// Warmup trains every node's span parser offline using the spans that the
// node would have produced for the given traces (§3.2.1).
func (c *Cluster) Warmup(traces []*Trace) {
	byNode := map[string][]*Span{}
	for _, t := range traces {
		for node, spans := range t.ByNode() {
			byNode[node] = append(byNode[node], spans...)
		}
	}
	for node, spans := range byNode {
		if col, ok := c.collectors[node]; ok {
			col.Agent().Warmup(spans)
		}
	}
}

// Capture ingests one complete trace: the spans are partitioned into per-node
// sub-traces, parsed by each node's agent, and any sampling decision
// triggers a cluster-wide parameter upload (trace coherence). Capture is the
// synchronous entry point — the trace is fully ingested when it returns —
// and is safe to call from many goroutines at once. On a closed cluster it
// ingests nothing and returns ErrClosed.
func (c *Cluster) Capture(t *Trace) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.captureOne(t)
	return nil
}

// CaptureAsync hands a trace to the ingest worker pool and returns once it
// is enqueued, blocking when the bounded queue is full (back-pressure, never
// dropping). Without IngestWorkers it degrades to synchronous Capture. On a
// closed cluster it ingests nothing and returns ErrClosed. Call Flush or
// Close before querying for the results.
func (c *Cluster) CaptureAsync(t *Trace) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	if c.ingestCh == nil {
		c.captureOne(t)
		return nil
	}
	c.pending.Add(1)
	c.ingestCh <- t
	return nil
}

func (c *Cluster) captureOne(t *Trace) {
	start := time.Now()
	s, _ := c.capScratch.Get().(*captureScratch)
	if s == nil {
		s = &captureScratch{byNode: map[string][]*Span{}}
	}
	for k, v := range s.byNode {
		s.byNode[k] = v[:0]
	}
	// Partition by node, noting whether every span carries the trace's own
	// ID (the overwhelmingly common case, served without re-grouping).
	uniform := true
	for _, sp := range t.Spans {
		s.byNode[sp.Node] = append(s.byNode[sp.Node], sp)
		if sp.TraceID != t.TraceID {
			uniform = false
		}
	}

	// Walk nodes in cluster order, not map order: the first sampling node's
	// reason is recorded on the notice, and byte accounting must be
	// deterministic across runs.
	for _, node := range c.nodes {
		spans := s.byNode[node]
		if len(spans) == 0 {
			continue
		}
		col, ok := c.collectors[node]
		if !ok {
			continue
		}
		if uniform {
			s.st = SubTrace{TraceID: t.TraceID, Node: node, Spans: spans}
			c.ingest(col, &s.st)
			continue
		}
		for _, st := range trace.BuildSubTraces(node, spans) {
			c.ingest(col, st)
		}
	}
	c.capScratch.Put(s)
	d := time.Since(start)
	c.histCapture.Observe(d)
	if c.slow.Exceeds(d) {
		c.slow.Record("capture", t.TraceID, d, int64(t.Size()), -1)
	}
}

// MarkSampled externally marks a trace as sampled (the head/tail adapter
// path) and collects its parameters from every node. On a closed cluster it
// records nothing and returns ErrClosed.
func (c *Cluster) MarkSampled(traceID, reason string) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.store.MarkSampled(traceID, reason)
	c.notifySampled(traceID, reason)
	return nil
}

// ingest feeds one sub-trace to its collector, the one place a capture
// decides on a notice: sent when the sub-trace sampled a trace not noticed yet.
func (c *Cluster) ingest(col *collector.Collector, st *SubTrace) {
	if res := col.Ingest(st); len(res.Samples) > 0 && !res.Noticed {
		c.notifySampled(st.TraceID, res.Samples[0].Reason)
	}
}

// notifySampled performs the trace-coherence fan-out for a mark the store
// already holds: the backend broadcasts one notice on the collectors'
// control channel (counted once — it is a single multicast message), and
// every host reports its buffered params for the trace.
func (c *Cluster) notifySampled(traceID, reason string) {
	c.meter.Record("backend", &wire.SampleNotice{TraceID: traceID, Reason: reason})
	for _, node := range c.nodes {
		c.collectors[node].ReportSampled(traceID)
	}
}

// Flush performs the periodic pattern/Bloom upload on every collector
// (default cadence in the paper: one minute), after waiting for the
// CaptureAsync queue to drain, so queries issued after Flush see every
// capture enqueued before it. With DataDir set — or against a remote
// durable backend — Flush then forces the write-ahead logs to durable
// storage and returns the engine's first I/O error: everything queryable
// after a nil Flush survives a crash and reopen. On a closed cluster Flush
// does nothing and returns ErrClosed.
func (c *Cluster) Flush() error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.drainIngest()
	for _, node := range c.nodes {
		c.collectors[node].FlushPatterns()
	}
	if c.selfTr == nil {
		return c.store.FlushPersistence()
	}
	start := time.Now()
	err := c.store.FlushPersistence()
	c.selfTr.observeWALFlush(start, time.Since(start))
	// Drain after the flush: the pending self traces (including the
	// wal-flush span just recorded) become queryable now and durable on the
	// next flush.
	c.selfTr.drain()
	return err
}

// drainIngest waits until every trace enqueued by CaptureAsync so far has
// been fully ingested by the worker pool. Per the Cluster contract, callers
// must not race CaptureAsync with Flush/Close: the WaitGroup protocol
// forbids Add calls concurrent with Wait once the counter reaches zero.
// Enqueue-then-Flush from one goroutine is always safe.
func (c *Cluster) drainIngest() {
	if c.ingestCh == nil {
		return
	}
	c.pending.Wait()
}

// Close drains the CaptureAsync queue, stops its worker pool and performs a
// last pattern/Bloom upload on every collector. With DataDir set it then
// flushes the write-ahead logs and detaches the durable store, so
// everything captured before Close is on disk when it returns —
// close-is-flush. A remote cluster's Close flushes the server's durable
// store and closes the connection (the server keeps running for other
// clients). Captures must not race with Close itself. Safe to call
// more than once: the second and later calls are no-ops returning the same
// error, which is the durable store's first I/O error, if any.
//
// Closed means closed: every later operation fails with ErrClosed —
// captures, marks and flushes return it, queries record it (see Err) and
// answer with zero values.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		if c.ingestCh != nil {
			close(c.ingestCh)
			c.ingestWG.Wait()
		}
		if c.selfTr != nil {
			c.selfTr.drain()
		}
		for _, node := range c.nodes {
			c.collectors[node].FlushPatterns()
		}
		c.closeErr = c.store.ClosePersistence()
	})
	return c.closeErr
}

// checkOpen returns nil on a live cluster and records + returns the sticky
// ErrClosed on a closed one.
func (c *Cluster) checkOpen() error {
	if !c.closed.Load() {
		return nil
	}
	c.opErr.CompareAndSwap(nil, ErrClosed)
	return ErrClosed
}

// Err reports the cluster's first operational error: ErrClosed once any
// operation was attempted after Close, or a remote cluster's first
// transport failure. Methods without an error return (Query, BatchAnalyze,
// FindTraces, ...) record here instead of panicking or answering wrong —
// check Err when answers unexpectedly go empty. A healthy cluster reports
// nil.
func (c *Cluster) Err() error {
	if v := c.opErr.Load(); v != nil {
		return v.(error)
	}
	if c.remote != nil {
		return c.remote.Err()
	}
	return nil
}

// PersistErr reports the durable storage engine's first sticky I/O error —
// the signal a health probe needs: a cluster whose WAL writes are failing
// is still answering queries, but nothing new it acknowledges is durable.
// Memory-only and remote clusters report nil (a remote server's persistence
// health belongs to its own probes).
func (c *Cluster) PersistErr() error {
	if c.local == nil {
		return nil
	}
	return c.local.PersistErr()
}

// TransportStats are a remote cluster's fault-tolerance counters: how much
// work the transport did to hide failures. All zero for a local cluster.
type TransportStats struct {
	// Redials counts background reconnects after a connection died.
	Redials int64
	// Retries counts synchronous calls that retried transparently.
	Retries int64
	// ReplayedEnvelopes counts journaled ingest envelopes retransmitted.
	ReplayedEnvelopes int64
	// DroppedEnvelopes counts envelopes dropped at the journal bound —
	// each one is ingest lost to sustained backpressure.
	DroppedEnvelopes int64
}

// TransportStats reports the remote transport's retry/redial/replay
// counters (all zero on a local cluster).
func (c *Cluster) TransportStats() TransportStats {
	if c.remote == nil {
		return TransportStats{}
	}
	return TransportStats{
		Redials:           c.remote.Redials(),
		Retries:           c.remote.Retries(),
		ReplayedEnvelopes: c.remote.ReplayedEnvelopes(),
		DroppedEnvelopes:  c.remote.DroppedEnvelopes(),
	}
}

// Query looks a trace ID up in the backend. Sampled traces answer exactly
// (QueryResult.Reason carries the sampling reason), everything else answers
// approximately. Repeated lookups of unchanged traces are served from the
// epoch-validated result cache (Config.QueryCacheSize). On a closed cluster
// Query answers Miss and records ErrClosed (see Err).
func (c *Cluster) Query(traceID string) QueryResult {
	if err := c.checkOpen(); err != nil {
		return QueryResult{}
	}
	return c.store.Query(traceID)
}

// QueryMany answers one query per trace ID, fanning the lookups out over
// the bounded query worker pool (Config.QueryWorkers) — on a remote
// cluster, the server's pool, reached in one request. Results are positional:
// out[i] answers traceIDs[i], identical to serial Query calls. On a closed
// cluster every result is a Miss and ErrClosed is recorded (see Err).
func (c *Cluster) QueryMany(traceIDs []string) []QueryResult {
	if err := c.checkOpen(); err != nil {
		return make([]QueryResult, len(traceIDs))
	}
	return c.store.QueryMany(traceIDs)
}

// NetworkBytes returns the total bytes agents and backend exchanged.
func (c *Cluster) NetworkBytes() int64 { return c.meter.Total() }

// StorageBytes returns the backend's persisted bytes (one stats round-trip
// on a remote cluster). On a closed cluster it answers 0 and records
// ErrClosed (see Err).
func (c *Cluster) StorageBytes() int64 { return c.backendStats().StorageBytes }

// StorageBreakdown returns the backend's storage split into pattern, Bloom
// and parameter bytes. On a closed cluster it answers zeros and records
// ErrClosed (see Err).
func (c *Cluster) StorageBreakdown() (patterns, blooms, params int64) {
	st := c.backendStats()
	return st.PatternBytes, st.BloomBytes, st.ParamBytes
}

// Backend exposes the in-process backend for advanced queries. A remote
// (Dial) cluster has no local backend and returns nil — the backend lives
// in the mintd server.
func (c *Cluster) Backend() *backend.Backend { return c.local }

// Nodes returns the node names.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Shards returns the backend shard count, 0 (recording ErrClosed) on a
// closed cluster.
func (c *Cluster) Shards() int { return c.backendStats().BackendShards }

// SpanPatternCount returns the distinct span patterns across the backend,
// 0 (recording ErrClosed) on a closed cluster.
func (c *Cluster) SpanPatternCount() int { return c.backendStats().SpanPatterns }

// TopoPatternCount returns the distinct topo patterns across the backend,
// 0 (recording ErrClosed) on a closed cluster.
func (c *Cluster) TopoPatternCount() int { return c.backendStats().TopoPatterns }

// backendStats reads the backend's storage accounting and pattern and shard
// counts in one pass — one stats round trip on a remote cluster, whose
// failure Err reports. On a closed cluster it answers zeros and records
// ErrClosed.
func (c *Cluster) backendStats() rpc.Stats {
	if err := c.checkOpen(); err != nil {
		return rpc.Stats{}
	}
	if c.remote != nil {
		st, _ := c.remote.Stats()
		return st
	}
	return rpc.BackendStats(c.local)
}

// AgentEvictions reports how many parameter blocks a node's Params Buffer
// has dropped under memory pressure (diagnostics for buffer sizing).
func (c *Cluster) AgentEvictions(node string) uint64 {
	col, ok := c.collectors[node]
	if !ok {
		return 0
	}
	return col.Agent().Buffer().Evicted()
}

// Stats is a point-in-time snapshot of a cluster's byte accounting and
// pattern state, taken in one pass so harnesses (cmd/mintexp, benchmarks)
// report a consistent view instead of stitching racy single-field reads.
// On a remote cluster the backend fields cost one stats round trip.
type Stats struct {
	NetworkBytes int64 // agent↔backend bytes metered client-side
	StorageBytes int64 // backend's persisted bytes (patterns+blooms+params)
	PatternBytes int64
	BloomBytes   int64
	ParamBytes   int64
	SpanPatterns int
	TopoPatterns int
	Shards       int
	Nodes        int
	Evictions    uint64 // Params Buffer evictions summed over this cluster's agents
}

// Stats snapshots the cluster. On a closed cluster the backend-derived
// fields are zero (recording ErrClosed, see Err); the client-side meter and
// eviction counters still answer.
func (c *Cluster) Stats() Stats {
	s := Stats{
		NetworkBytes: c.meter.Total(),
		Nodes:        len(c.nodes),
	}
	for _, col := range c.collectors {
		s.Evictions += col.Agent().Buffer().Evicted()
	}
	b := c.backendStats()
	s.StorageBytes, s.PatternBytes = b.StorageBytes, b.PatternBytes
	s.BloomBytes, s.ParamBytes = b.BloomBytes, b.ParamBytes
	s.SpanPatterns, s.TopoPatterns, s.Shards = b.SpanPatterns, b.TopoPatterns, b.BackendShards
	return s
}

// Telemetry returns the cluster's latency-histogram registry. A local
// cluster shares its backend's registry, so decode/capture families sit
// next to shard-apply, WAL and query timings in one scrape; a remote
// cluster's registry holds decode/capture plus the transport client's
// call-latency family. Served by /metricsz in Prometheus text format.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// SlowOp is one entry of the slow-op ledger: an operation whose latency
// exceeded the configured threshold, with what it was working on.
type SlowOp = telemetry.SlowOp

// SlowOps returns the slow-op ledger's retained entries, oldest first.
// Served as JSON by GET /debug/slowz and printed by minttrace -slow.
func (c *Cluster) SlowOps() []SlowOp { return c.slow.Snapshot() }

// SlowOpsTotal reports how many slow operations have been recorded since
// start, including entries the bounded ledger has since evicted.
func (c *Cluster) SlowOpsTotal() uint64 { return c.slow.Total() }

// SlowOpThreshold reports the resolved slow-op latency threshold; zero
// means the ledger is disabled.
func (c *Cluster) SlowOpThreshold() time.Duration { return c.slow.Threshold() }

// SelfTraceRPC returns the rpc.Server op observer that renders served RPC
// frames as self-trace spans, or nil when Config.SelfTrace is off — mintd
// wires it with Server.SetOpObserver before serving.
func (c *Cluster) SelfTraceRPC() func(rpc.OpObservation) {
	if c.selfTr == nil {
		return nil
	}
	return c.selfTr.observeRPC
}

// SelfTraceSpans reports how many of the cluster's own pipeline spans have
// been fed back through its capture path (zero with SelfTrace off) — the
// mint_selftrace_spans_total counter.
func (c *Cluster) SelfTraceSpans() int64 {
	if c.selfTr == nil {
		return 0
	}
	return c.selfTr.SpansFed()
}
