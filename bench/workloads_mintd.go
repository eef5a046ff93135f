package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/mint"
)

// ---- rpc_mintd ----

type rpcMintd struct {
	co  *corpus
	d   *mintd
	c   *mint.Cluster
	dir string
}

func setUpRPCMintd(e *env, _ *rec) (instance, error) {
	dir, err := e.tmpDir("rpc")
	if err != nil {
		return nil, err
	}
	w := &rpcMintd{co: newCorpus(e.seed, poolTraces, false), dir: dir}
	if w.d, err = startMintd(e.mintdBin, dir, 2); err != nil {
		w.close()
		return nil, err
	}
	if w.c, err = mint.Dial(w.d.rpcAddr, w.co.nodes, mint.Defaults()); err != nil {
		w.close()
		return nil, err
	}
	w.c.Warmup(w.co.warm)
	for i := 0; i < e.every(preloadLive); i++ {
		if err := w.c.Capture(w.co.stamp(i)); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.c.Flush(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *rpcMintd) close() {
	if w.c != nil {
		_ = w.c.Close()
	}
	if w.d != nil {
		w.d.kill()
	}
	_ = os.RemoveAll(w.dir)
}

// measure runs the capture section and then the query section, one after
// the other: with both at once the box has four saturated threads (client
// writer and reader, server ingest and query lanes) on two processors, and
// the run-to-run spread of every timing exceeds any usable bound. Reads
// beside writes are mixed_durable's subject.
func (w *rpcMintd) measure(e *env, r *rec) error {
	base := e.every(preloadLive)
	flush := e.every(flushRPC)
	n := roundTo(e.count(planCaptureRPC, 0.55), flush)
	scrape0, err := w.d.scrape()
	if err != nil {
		return err
	}
	cpu := func() time.Duration { return selfCPU() + w.d.cpu() }
	st := captureLoop(e.tr, r, w.c, w.co, base, n, flush, false, cpu, e.cap(0.55), nil)
	reportCapture(r, st)
	checkOverhead(r, "capture", st.overhead(), maxOverheadShare)
	total := base + st.done
	reportRatios(r, w.c.Stats(), w.co.raw(total))

	// Capture ran on both processors (agents here, ingest in mintd, side by
	// side); the query section is one round trip at a time.
	restore := onOneCPU(r, w.d)
	rd := &reader{
		c: w.c, co: w.co, rec: r, tr: e.tr, rng: rand.New(rand.NewSource(e.seed)),
		pick:       func(rng *rand.Rand) int { return rng.Intn(total) },
		findBlocks: e.blocks(),
	}
	rd.run(e.count(planQueryRPC, 0.22), e.cap(0.45), nil)
	restore()
	rd.verifyDeep()
	rd.report()

	// The transport must have lost nothing. (Ingest the server shed under
	// load is replayed by the client, exactly once; it is not a failure.)
	if err := w.c.Err(); err != nil {
		r.fail("transport error: %v", err)
	}
	if ts := w.c.TransportStats(); ts.DroppedEnvelopes != 0 {
		r.fail("transport dropped %d ingest envelopes", ts.DroppedEnvelopes)
	}
	scrape1, err := w.d.scrape()
	if err != nil {
		return err
	}
	r.attempt(1)
	if v := scrape1["mint_rpc_panics_total"]; v != 0 {
		r.fail("mintd reports mint_rpc_panics_total = %g", v)
	}
	if e.tr != nil {
		e.tr.addStages(stageTotals(scrape0, scrape1))
	}
	r.set("peak_rss_mb", peakRSSMB(w.d.cmd.Process.Pid))

	// A clean shutdown is part of the contract under test: every envelope
	// acknowledged over the wire is on disk when mintd exits 0.
	_ = w.c.Close()
	w.c = nil
	r.attempt(1)
	if err := w.d.stop(); err != nil {
		r.fail("%v", err)
	}
	return nil
}

// ---- otlp_mintd ----

const (
	otlpTracesPerRequest = 4 // ~13 spans a trace: ~50 spans a request
)

// otlpRequest is one pre-encoded OTLP/protobuf export request and where its
// traces' IDs sit in the bytes, so a request is re-stamped by overwriting 16
// bytes per occurrence instead of re-encoding.
type otlpRequest struct {
	body    []byte
	offsets [otlpTracesPerRequest][]int
}

type otlpMintd struct {
	co      *corpus
	d       *mintd
	dir     string
	reqs    []otlpRequest
	clients [otlpConns]*http.Client
	warm    int // requests sent during set-up
	sent    otlpSent
}

func idBytes(id string) []byte {
	b, err := hex.DecodeString(id)
	if err != nil {
		panic("bench: trace ID is not hex: " + id) // traceID only emits hex
	}
	return b
}

// buildOTLPRequests encodes the pool as requests of otlpTracesPerRequest
// traces each: request t carries pool[4t..4t+3], which is what ops
// 4j..4j+3 stamp for every j congruent to t.
func buildOTLPRequests(co *corpus) ([]otlpRequest, error) {
	reqs := make([]otlpRequest, len(co.pool)/otlpTracesPerRequest)
	for t := range reqs {
		var spans []*mint.Span
		for q := 0; q < otlpTracesPerRequest; q++ {
			spans = append(spans, co.pool[t*otlpTracesPerRequest+q].Spans...)
		}
		body, err := mint.EncodeOTLPProto(spans)
		if err != nil {
			return nil, fmt.Errorf("encode OTLP request %d: %w", t, err)
		}
		reqs[t].body = body
		for q := 0; q < otlpTracesPerRequest; q++ {
			tr := co.pool[t*otlpTracesPerRequest+q]
			pat := idBytes(tr.TraceID)
			for at := 0; ; {
				i := bytes.Index(body[at:], pat)
				if i < 0 {
					break
				}
				reqs[t].offsets[q] = append(reqs[t].offsets[q], at+i)
				at += i + len(pat)
			}
			if len(reqs[t].offsets[q]) != len(tr.Spans) {
				return nil, fmt.Errorf("OTLP request %d: found %d trace-ID occurrences for %d spans", t, len(reqs[t].offsets[q]), len(tr.Spans))
			}
		}
	}
	return reqs, nil
}

// stampRequest re-stamps request j's bytes with the IDs of ops 4j..4j+3.
func (w *otlpMintd) stampRequest(j int) []byte {
	rq := &w.reqs[j%len(w.reqs)]
	for q := 0; q < otlpTracesPerRequest; q++ {
		id := idBytes(w.co.id(j*otlpTracesPerRequest + q))
		for _, off := range rq.offsets[q] {
			copy(rq.body[off:], id)
		}
	}
	return rq.body
}

func setUpOTLPMintd(e *env, _ *rec) (instance, error) {
	dir, err := e.tmpDir("otlp")
	if err != nil {
		return nil, err
	}
	w := &otlpMintd{co: newCorpus(e.seed, poolTraces/2, true), dir: dir}
	if w.reqs, err = buildOTLPRequests(w.co); err != nil {
		w.close()
		return nil, err
	}
	if w.d, err = startMintd(e.mintdBin, dir, 1); err != nil {
		w.close()
		return nil, err
	}
	for k := range w.clients {
		// One keep-alive HTTP/1.1 connection per client.
		w.clients[k] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	// Warm the connection and the server's parser. Warm-up requests are
	// ops like any other (the first of the sequence), so the server's
	// counters and the raw-byte denominator include them.
	w.warm = e.every(otlpWarmRequests) / otlpConns * otlpConns
	for j := 0; j < w.warm; j++ {
		if err := w.post(j%otlpConns, w.stampRequest(j)); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up request %d: %w", j, err)
		}
	}
	return w, nil
}

func (w *otlpMintd) close() {
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if w.d != nil {
		w.d.kill()
	}
	_ = os.RemoveAll(w.dir)
}

func (w *otlpMintd) post(conn int, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, "http://"+w.d.httpAddr+"/v1/traces", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-protobuf")
	resp, err := w.clients[conn].Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// otlpSent is what actually went out: the oracle's record when a wall-clock
// cap cut a section short and the planned request range has holes.
type otlpSent struct {
	requests int
	spans    int64
	raw      int64 // Σ raw span bytes of the traces sent
	// prefix is how many leading requests of the sequence were all sent:
	// the answer check draws IDs from their traces only.
	prefix int
	holes  bool
}

// section runs one loop per connection over requests [from, from+n),
// connection k taking the requests congruent to k, and returns the
// per-connection stats.
func (w *otlpMintd) section(e *env, r *rec, from, n int, rate float64, deadline time.Time, name string) [otlpConns]loopStats {
	var out [otlpConns]loopStats
	var wg sync.WaitGroup
	for k := 0; k < otlpConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var body []byte
			req := func(i int) int { return from + i*otlpConns + k }
			l := loop{
				n: n / otlpConns, deadline: deadline,
				rate: rate, stride: otlpConns, offset: float64(k),
				prep: func(i int) { body = w.stampRequest(req(i)) },
				do: func(i int) {
					if err := w.post(k, body); err != nil {
						r.fail("OTLP request %d: %v", req(i), err)
					}
				},
			}
			if e.tr != nil {
				l.record = func(i int, s, t time.Time) { e.tr.op(name, req(i), s, t) }
			}
			out[k] = l.run()
			r.attempt(int64(out[k].done))
		}(k)
	}
	wg.Wait()
	// Account for what went out.
	complete := true
	minDone := n
	for k, st := range out {
		for i := 0; i < st.done; i++ {
			lo := (from + i*otlpConns + k) * otlpTracesPerRequest
			w.sent.requests++
			w.sent.spans += w.co.spansIn(lo+otlpTracesPerRequest) - w.co.spansIn(lo)
			w.sent.raw += w.co.raw(lo+otlpTracesPerRequest) - w.co.raw(lo)
		}
		minDone = min(minDone, st.done)
		if st.done != n/otlpConns {
			complete = false
		}
	}
	if !w.sent.holes {
		w.sent.prefix = from + minDone*otlpConns
	}
	if !complete {
		w.sent.holes = true
		sent := 0
		for _, st := range out {
			sent += st.done
		}
		r.flag("%s section hit its wall-clock cap: %d of %d requests sent", name, sent, n)
	}
	return out
}

func (w *otlpMintd) measure(e *env, r *rec) error {
	// One connection, one request at a time, and a mintd of one processor
	// (GOMAXPROCS=1): see onOneCPU. The restarted daemon of the answer check
	// inherits the processor.
	defer onOneCPU(r, w.d)()
	scrape0, err := w.d.scrape()
	if err != nil {
		return err
	}
	cpu := func() time.Duration { return selfCPU() + w.d.cpu() }
	warmOps := w.warm * otlpTracesPerRequest
	w.sent = otlpSent{requests: w.warm, spans: w.co.spansIn(warmOps), raw: w.co.raw(warmOps), prefix: w.warm}

	// Phase A: open loop at the frozen rate, latency from due time.
	nA := e.count(otlpRate, 0.30) / otlpConns * otlpConns
	stA := w.section(e, r, w.warm, nA, otlpRate, e.cap(0.30), "http.post.open")
	var lat, lag []float64
	for _, st := range stA {
		lat = append(lat, st.lat...)
		lag = append(lag, st.lag...)
	}
	open := summarize(lat)
	r.set("capture_open_loop_p99_us", open.Tail)
	r.set("gen.lag_us_p50", median(lag))
	if m, period := median(lag), 1e6/otlpRate*otlpConns; m > maxLagShare*period {
		r.markInvalid("open-loop HTTP generator ran a median %.0fus late, over %.0f%% of a connection's %.0fus period", m, maxLagShare*100, period)
	}

	// Phase B: closed loop on the same connection; throughput and CPU are
	// the section's totals.
	nB := max(otlpConns, e.count(planOTLPRequests, 0.30)/otlpConns*otlpConns)
	c0, t0 := cpu(), time.Now()
	stB := w.section(e, r, w.warm+nA, nB, 0, e.cap(0.30), "http.post.closed")
	wall, used := time.Since(t0), cpu()-c0
	var overhead, closedLat []float64
	done := 0
	for _, st := range stB {
		done += st.done
		overhead = append(overhead, st.overhead())
		closedLat = append(closedLat, st.lat...)
	}
	traces := float64(done * otlpTracesPerRequest)
	// p50 from the open loop, the tail from the closed loop: see
	// mixedDurable.measure.
	closed := summarize(closedLat)
	r.setLatency("capture_p50_us", "capture_p99_us", latencySummary{N: closed.N, P50: open.P50, Tail: closed.Tail, TailAt: closed.TailAt})
	r.set("capture_traces_per_s", ratio(traces, wall.Seconds()))
	r.set("cpu_ms_per_ktrace", ratio(float64(used)/1e6, traces/1000))
	r.set("gen.overhead_ratio", median(overhead))

	// What mintd counted must be what was sent.
	scrape1, err := w.d.scrape()
	if err != nil {
		return err
	}
	if e.tr != nil {
		e.tr.addStages(stageTotals(scrape0, scrape1))
	}
	r.attempt(4)
	if got := scrape1["mint_otlp_requests_total"]; got != float64(w.sent.requests) {
		r.fail("mintd counted %g OTLP requests, %d were sent", got, w.sent.requests)
	}
	if got := scrape1["mint_otlp_spans_total"]; got != float64(w.sent.spans) && r.failedNow() == 0 {
		r.fail("mintd counted %g OTLP spans, %d were sent", got, w.sent.spans)
	}
	for _, series := range []string{"mint_otlp_errors_total", "mint_otlp_shed_total"} {
		if v := scrape1[series]; v != 0 {
			r.fail("mintd reports %s = %g", series, v)
		}
	}
	// Server-side collectors' report bytes, as far as a live mintd shows
	// them: the pattern upload happens only at shutdown, after the last
	// possible scrape.
	r.set("network_ratio", ratio(scrape1["mint_network_bytes_total"], float64(w.sent.raw)))
	r.set("peak_rss_mb", peakRSSMB(w.d.cmd.Process.Pid))

	// mintd uploads OTLP-ingested patterns to its store only when it shuts
	// down, so answers are checked against a restarted daemon over the same
	// data directory: clean shutdown, reopen, then query over rpc.
	r.attempt(1)
	if err := w.d.stop(); err != nil {
		r.fail("%v", err)
		return nil
	}
	if w.d, err = startMintd(e.mintdBin, w.dir, 1); err != nil {
		return fmt.Errorf("restart mintd over %s: %w", w.dir, err)
	}
	c, err := mint.Dial(w.d.rpcAddr, nil, mint.Defaults())
	if err != nil {
		return err
	}
	defer c.Close()
	r.set("storage_ratio", ratio(float64(c.StorageBytes()), float64(w.sent.raw)))
	known := w.sent.prefix * otlpTracesPerRequest
	// The daemon has just started: an untimed stretch of queries first, so
	// that its heap has grown past the collector's every-few-milliseconds
	// cycles before the timed ones.
	warm := &reader{
		c: c, co: w.co, rec: r, rng: rand.New(rand.NewSource(e.seed + 1)),
		pick: func(rng *rand.Rand) int { return rng.Intn(known) },
	}
	warm.run(e.count(planQueryRPC, 0.04), e.cap(0.10), nil)
	rd := &reader{
		c: c, co: w.co, rec: r, tr: e.tr, rng: rand.New(rand.NewSource(e.seed)),
		pick:       func(rng *rand.Rand) int { return rng.Intn(known) },
		findBlocks: e.blocks(),
	}
	rd.run(e.count(planQueryRPC, 0.22), e.cap(0.45), nil)
	rd.verifyDeep()
	rd.report()
	if err := c.Err(); err != nil {
		r.fail("transport error: %v", err)
	}
	return nil
}

// failedNow reads the failure count mid-run.
func (r *rec) failedNow() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}
