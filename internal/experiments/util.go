package experiments

import (
	"fmt"
	"strings"
)

// fmtMB renders bytes as megabytes with two decimals.
func fmtMB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }

// fmtPct renders a ratio as a percentage with two decimals.
func fmtPct(r float64) string { return fmt.Sprintf("%.2f%%", r*100) }

// fmtF renders a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// fmtI renders an int.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }

// volatileMask replaces wall-clock cells in stable renders: timings vary
// run to run, everything else must not.
const volatileMask = "(timing)"

// MarkVolatileCols marks whole columns as wall-clock measurements. Stable
// renders mask them, so the deterministic remainder of the figure stays
// byte-comparable across runs.
func (r *Result) MarkVolatileCols(cols ...int) {
	if r.volatileCols == nil {
		r.volatileCols = map[int]bool{}
	}
	for _, c := range cols {
		r.volatileCols[c] = true
	}
}

// StableRows returns the rows with volatile cells masked.
func (r *Result) StableRows() [][]string {
	if len(r.volatileCols) == 0 {
		return r.Rows
	}
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		masked := append([]string(nil), row...)
		for c := range r.volatileCols {
			if c < len(masked) {
				masked[c] = volatileMask
			}
		}
		out[i] = masked
	}
	return out
}

// Render pretty-prints a Result as an aligned text table.
func (r *Result) Render() string { return r.render(r.Rows) }

// RenderStable pretty-prints the Result with volatile (wall-clock) cells
// masked: two runs regenerating the same figure must produce byte-identical
// stable renders. This is what the render golden compares.
func (r *Result) RenderStable() string { return r.render(r.StableRows()) }

func (r *Result) render(rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
