package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Parent is an index into the span list, -1 for a
// root; Req identifies the request (the op index) the span belongs to.
// Replica marks work the benchmark did beside the real path to split a
// layer's time (a second parser fed the same spans, a wire round-trip of a
// report that travelled in-process): replicas run after the request's root
// span has closed, as roots of their own, so they never inflate a real span.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Replica bool   `json:"replica,omitempty"`
}

// maxTraceSpans bounds what one run keeps in memory and writes out; the
// per-name totals keep counting past it.
const maxTraceSpans = 200_000

// tracer records spans in memory and writes them out when the run ends.
// The stack methods (push/pop) serve the single-goroutine layer lab, where
// callee shims cannot be handed a parent; op records finished root spans
// from the workload's client goroutines.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // current batch, indices local to it
	kept  []span // folded batches, indices rebased
	stack []int
	req   int
	// totals accumulate per span name past the span cap.
	totals map[string]*spanTotal
	stages []stageTotal
}

type spanTotal struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	Replica bool  `json:"replica,omitempty"`
}

// stageTotal is a stage's busy time read from the program's own histograms
// (Cluster.Telemetry in-process, /metricsz for mintd) across a timed
// section: the server-side half of a request the client spans cannot see.
type stageTotal struct {
	Stage   string `json:"stage"`
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*spanTotal{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setReq names the request that subsequent pushed spans belong to.
func (t *tracer) setReq(req int) { t.req = req }

// push opens a span under the innermost open one.
func (t *tracer) push(name string, replica bool) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req, Replica: replica})
	t.stack = append(t.stack, len(t.spans)-1)
}

// pop closes the innermost open span and returns its duration.
func (t *tracer) pop() time.Duration {
	end := t.now()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = end
	return time.Duration(end - t.spans[i].Start)
}

// op records a finished client-side root span.
func (t *tracer) op(name string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1, Req: req})
	t.mu.Unlock()
}

func (t *tracer) addStages(st []stageTotal) {
	t.mu.Lock()
	t.stages = append(t.stages, st...)
	t.mu.Unlock()
}

// fold moves the recorded spans into the per-name totals (self time = span
// minus its direct children) and into the kept list, up to maxTraceSpans.
// Called with no span open: between lab sections and before writing.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans, t.totals)
	off := len(t.kept)
	for _, s := range t.spans {
		if len(t.kept) == maxTraceSpans {
			break // parents precede children, so a cut never orphans a kept span
		}
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.kept = append(t.kept, s)
	}
	t.spans = t.spans[:0]
}

// selfTimes adds each span's duration and self time to totals by name.
// Children are nested and sequential (one goroutine per request), so a
// span's self time is its duration minus the sum of its direct children's.
func selfTimes(spans []span, totals map[string]*spanTotal) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		tot := totals[s.Name]
		if tot == nil {
			tot = &spanTotal{Replica: s.Replica}
			totals[s.Name] = tot
		}
		d := s.End - s.Start
		tot.Count++
		tot.TotalNS += d
		tot.SelfNS += d - child[i]
	}
}

func (t *tracer) total(name string) spanTotal {
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// write folds what is left and writes the trace file.
func (t *tracer) write(path string, header map[string]any) error {
	t.fold()
	out := map[string]any{
		"header":    header,
		"self_time": t.totals,
		"stages":    t.stages,
		"spans":     t.kept,
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
