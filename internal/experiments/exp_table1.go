package experiments

import (
	"fmt"
	"sort"

	"repro/internal/parser"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Table1Commonality reproduces Table 1: the occurrence and proportion of
// pairs with commonality at the inter-trace and inter-span level across
// three services. Two traces (spans) form a pair with commonality when they
// share a pattern; occurrence counts those pairs and proportion divides by
// the total number of pairs.
func Table1Commonality() *Result {
	type svcSpec struct {
		name   string
		apis   int
		depth  int
		traces int
	}
	specs := []svcSpec{
		{"Service A", 4, 8, 3000},
		{"Service B", 3, 10, 3200},
		{"Service C", 6, 6, 2800},
	}
	res := &Result{
		ID:     "tab1",
		Title:  "Occurrence and proportion of commonality (inter-trace / inter-span)",
		Header: []string{"service", "traces", "trace-pairs#", "trace-pairs%", "spans", "span-pairs#", "span-pairs%"},
	}
	for i, spec := range specs {
		sys := sim.AlibabaLike(fmt.Sprintf("t1s%d", i), spec.apis, spec.depth, int64(500+i))
		traces := sim.GenTraces(sys, spec.traces)

		// Inter-trace commonality: group traces by their end-to-end
		// topology pattern (the service/operation tree), then count traces
		// in groups of size >= 2.
		traceGroups := map[string]int{}
		for _, t := range traces {
			traceGroups[traceShapeKey(t)]++
		}
		traceCommon := 0
		for _, g := range traceGroups {
			traceCommon += g * (g - 1) / 2
		}
		tracePairs := len(traces) * (len(traces) - 1) / 2

		// Inter-span commonality: two spans have a common pattern when they
		// execute the same work logic — same operation, same attribute keys
		// and string templates (§2.2.3). Numeric buckets are value-level
		// variability, not structure, so they do not split groups. The
		// statistic is per service (the table's unit of study), so pairs
		// are counted among each service's own spans and summed.
		p := parser.New(parser.Defaults())
		spanGroups := map[string]map[string]int{} // service -> shape -> count
		perService := map[string]int{}
		totalSpans := 0
		for _, t := range traces {
			for _, s := range t.Spans {
				pat, _ := p.Parse(s)
				key := pat.Operation + "\x1e" + pat.Kind.String()
				for _, a := range pat.Attrs {
					if a.IsNum {
						continue
					}
					key += "\x1e" + a.Key + "=" + a.Pattern
				}
				m, ok := spanGroups[pat.Service]
				if !ok {
					m = map[string]int{}
					spanGroups[pat.Service] = m
				}
				m[key]++
				perService[pat.Service]++
				totalSpans++
			}
		}
		spanCommon := 0
		spanPairs := 0
		for svc, groups := range spanGroups {
			for _, g := range groups {
				spanCommon += g * (g - 1) / 2
			}
			n := perService[svc]
			spanPairs += n * (n - 1) / 2
		}

		res.Rows = append(res.Rows, []string{
			spec.name,
			fmtI(len(traces)),
			fmtI(traceCommon),
			fmtPct(float64(traceCommon) / float64(tracePairs)),
			fmtI(totalSpans),
			fmtI(spanCommon),
			fmtPct(float64(spanCommon) / float64(spanPairs)),
		})
	}
	res.Notes = append(res.Notes,
		"paper reports inter-trace pair commonality 34–56% and inter-span 25–45% on production traces")
	return res
}

// traceShapeKey renders the cross-node topology of a trace (parent→children
// over service/operation identities) as a canonical string. It reuses the
// per-node topo encoding over service|operation identities so the shape key
// matches what Mint's trace parser sees.
func traceShapeKey(t *trace.Trace) string {
	out := ""
	for _, node := range sortedNodes(t) {
		sts := trace.BuildSubTraces(node, t.ByNode()[node])
		for _, st := range sts {
			parsed := map[string]*parser.ParsedSpan{}
			for _, s := range st.Spans {
				parsed[s.SpanID] = &parser.ParsedSpan{
					PatternID: s.Service + "/" + s.Operation,
					SpanID:    s.SpanID,
				}
			}
			enc := topo.Encode(st, parsed)
			out += enc.Pattern.Key() + "\x1c"
		}
	}
	return out
}

func sortedNodes(t *trace.Trace) []string {
	byNode := t.ByNode()
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}
