// Command mintd is the Mint backend daemon: it hosts the sharded, durable
// backend store and serves it to remote agents over two listeners —
//
//   - a binary RPC port (-listen) speaking the internal/rpc protocol:
//     report ingest (pattern/Bloom/params batches, sampling marks), the
//     full query surface (Query, QueryMany, BatchAnalyze, FindTraces,
//     FindAnalyze), stats and durable flush. Remote clients connect with
//     mint.Dial and collector traffic ships here unchanged.
//
//   - an HTTP port (-http) with POST /v1/traces OTLP ingestion in both
//     JSON and protobuf encodings (point an unmodified OpenTelemetry SDK
//     exporter at it; gzip request bodies accepted, -max-body bounds
//     payload size), the OTLP/gRPC TraceService/Export method over
//     cleartext HTTP/2, GET /healthz liveness, GET /metricsz annotated
//     Prometheus metrics (counters plus per-stage latency histograms)
//     and GET /debug/slowz, the slow-op ledger as JSON (-slow-threshold
//     tunes what counts as slow).
//
//   - optionally, a loopback-only debug port (-debug-addr) serving the
//     net/http/pprof surface and expvar at /debug/vars. mintd refuses to
//     start when the address is not loopback or cannot be bound — a debug
//     surface that silently failed to come up would be missed exactly when
//     it is needed.
//
// With -self-trace the daemon feeds its own pipeline stages — OTLP ingest
// (decode, shard apply), served RPC frames (queue wait, serve) and WAL
// flushes — back into its own capture path as traces on the reserved
// mint-self node, queryable through the ordinary surface (filter on
// service "mint-self"). Self data never changes answers about real traces.
//
// With -data-dir the backend persists to one snapshot and one WAL and a
// restarted mintd answers queries byte-identically to the one that wrote
// the directory. SIGINT/SIGTERM drain before stopping: /healthz flips to
// 503 and HTTP ingest sheds with 429 (so load balancers and exporters move
// on), in-flight RPC requests finish within the -drain budget and their
// responses reach the clients, and only then does the WAL flush durable and
// the process exit 0 — every envelope acknowledged over the wire is on disk
// when it does.
//
// Usage:
//
//	mintd -listen 127.0.0.1:9911 -http 127.0.0.1:9912 \
//	      -data-dir /var/lib/mintd -shards 8 -retention 168h
//
// The OTLP path needs per-node agents on the daemon (the RPC path does
// not — remote agents parse client-side); -nodes names them, and payloads
// pick one via the X-Mint-Node header or ?node= parameter, defaulting to
// the first.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/rpc"
	"repro/mint"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9911", "RPC listen address for remote mint.Dial clients")
	httpAddr := flag.String("http", "127.0.0.1:9912", "HTTP listen address (OTLP ingest, /healthz, /metricsz); empty disables")
	nodes := flag.String("nodes", "otlp", "comma-separated node names served by the OTLP HTTP path")
	shards := flag.Int("shards", 4, "backend store shards")
	queryWorkers := flag.Int("query-workers", 0, "query worker pool bound (0 = GOMAXPROCS)")
	queryCache := flag.Int("query-cache", 0, "query result cache entries (0 = default, -1 disables)")
	maxBody := flag.Int64("max-body", 0, "max bytes per OTLP ingest payload, after decompression (0 = 32 MiB default)")
	dataDir := flag.String("data-dir", "", "durable storage directory (store.snap + store.wal, any shard count); empty = memory-only")
	retention := flag.Duration("retention", 0, "drop stored trace data older than this TTL (requires -data-dir)")
	snapshotBytes := flag.Int64("snapshot-bytes", 0, "WAL bytes per shard: rewrite the snapshot once the WAL exceeds this size times -shards; 0 = 4 MiB (requires -data-dir)")
	drain := flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight RPC requests before force-closing connections")
	debugAddr := flag.String("debug-addr", "", "debug HTTP listen address serving net/http/pprof and expvar (/debug/vars); loopback-only, empty disables")
	selfTrace := flag.Bool("self-trace", false, "feed the daemon's own pipeline stages (ingest, RPC serve, WAL flush) back into its capture path as mint-self traces")
	slowThreshold := flag.Duration("slow-threshold", 0, "latency above which an operation is recorded in the slow-op ledger (/debug/slowz); 0 = 250ms default, negative disables")
	flag.Parse()

	nodeList := strings.Split(*nodes, ",")
	for i := range nodeList {
		nodeList[i] = strings.TrimSpace(nodeList[i])
	}

	cluster, err := mint.Open(nodeList, mint.Config{
		Shards:             *shards,
		QueryWorkers:       *queryWorkers,
		QueryCacheSize:     *queryCache,
		DataDir:            *dataDir,
		RetentionTTL:       *retention,
		SnapshotEveryBytes: *snapshotBytes,
		SlowOpThreshold:    *slowThreshold,
		SelfTrace:          *selfTrace,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mintd: %v\n", err)
		os.Exit(1)
	}

	fatal := make(chan error, 1)
	srv := rpc.NewServer(cluster.Backend())
	if fn := cluster.SelfTraceRPC(); fn != nil {
		// Served RPC frames become rpc-request self traces; wired before
		// Listen per the SetOpObserver contract.
		srv.SetOpObserver(fn)
	}
	if *slowThreshold != 0 {
		srv.SlowOps().SetThreshold(*slowThreshold)
	}
	rpcAddr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mintd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mintd: rpc listening on %s\n", rpcAddr)

	var httpSrv *http.Server
	var handler *mint.HTTPHandler
	if *httpAddr != "" {
		handler = mint.NewHTTPHandler(cluster, nodeList[0])
		handler.AttachRPCServer(srv) // /metricsz reports transport traffic
		handler.SetMaxBody(*maxBody)
		httpSrv = &http.Server{
			Addr:              *httpAddr,
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		}
		h2c := enableH2C(httpSrv) // OTLP/gRPC exporters need cleartext HTTP/2
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				// Route through the shutdown path: exiting here would skip
				// the WAL flush that cluster.Close performs.
				fmt.Fprintf(os.Stderr, "mintd: http: %v\n", err)
				fatal <- err
			}
		}()
		fmt.Printf("mintd: http listening on %s (POST /v1/traces json+protobuf, gRPC Export h2c=%v, /healthz, /metricsz)\n", *httpAddr, h2c)
	}
	var debugSrv *http.Server
	if *debugAddr != "" {
		// Fail fast: a debug surface that silently failed to bind would be
		// discovered exactly when it is needed most. Bind errors and
		// non-loopback addresses abort startup; a later serve failure routes
		// through the fatal channel like the other listeners.
		ln, err := debugListener(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mintd: %v\n", err)
			os.Exit(1)
		}
		debugSrv = &http.Server{Handler: debugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "mintd: debug: %v\n", err)
				fatal <- err
			}
		}()
		fmt.Printf("mintd: debug listening on %s (/debug/pprof/, /debug/vars)\n", ln.Addr())
	}
	if *selfTrace {
		fmt.Println("mintd: self-tracing enabled (service mint-self)")
	}
	if *dataDir != "" {
		fmt.Printf("mintd: durable store at %s (retention %v)\n", *dataDir, *retention)
	}
	fmt.Println("mintd: ready")

	// Block until asked to stop (or a listener dies), then shut down in
	// dependency order: mark draining (health probes flip to 503, HTTP
	// ingest sheds with 429), drain the RPC listener — in-flight requests
	// finish and their responses reach the clients — then stop HTTP, then
	// flush the WAL durable. The drain-before-flush order is the durability
	// contract: every envelope acknowledged over the wire is in the WAL
	// before cluster.Close seals it. Only a signal-triggered shutdown
	// exits 0.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	exitCode := 0
	select {
	case got := <-sig:
		fmt.Printf("mintd: %v: shutting down\n", got)
	case <-fatal:
		exitCode = 1
		fmt.Println("mintd: listener failure: shutting down")
	}
	if handler != nil {
		handler.SetDraining(true)
	}
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "mintd: rpc drain: %v\n", err)
	} else {
		fmt.Println("mintd: rpc drained")
	}
	if httpSrv != nil {
		// Shutdown (not Close) waits for in-flight OTLP handlers: a capture
		// racing cluster.Close would violate the Cluster contract.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if err := cluster.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mintd: close: %v\n", err)
		os.Exit(1)
	}
	if exitCode == 0 {
		fmt.Println("mintd: clean shutdown")
	}
	os.Exit(exitCode)
}

// debugListener validates that addr names a loopback interface and binds
// it. The debug surface (pprof heap/goroutine dumps, expvar) exposes
// process internals, so mintd refuses to serve it on a routable address —
// a deliberate fail-fast at startup rather than a warning.
func debugListener(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr %q: %v", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("-debug-addr %q: debug surface is loopback-only (bind 127.0.0.1, ::1 or localhost)", addr)
	}
	return net.Listen("tcp", addr)
}

// debugHandler builds the debug mux: the full net/http/pprof surface plus
// expvar at /debug/vars. A dedicated mux — never the default one — so the
// profiling endpoints exist only on the loopback debug listener, not on the
// public -http port.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
