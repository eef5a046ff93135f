// Package sampler implements Mint's two paradigm-native samplers (§4.2) plus
// the head/tail adapters Mint remains compatible with (§3.4):
//
//   - Symptom Sampler: monitors variable parameters and samples traces with
//     abnormal string values (user-defined abnormal words) or numeric
//     outliers above the 95th percentile.
//   - Edge-Case Sampler: monitors the Topo Pattern Library and increases the
//     sampling probability of rare execution paths.
//   - Head/Tail: hash-based head sampling and predicate tail sampling.
package sampler

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/parser"
	"repro/internal/topo"
)

// Decision explains why a trace was sampled.
type Decision struct {
	Sampled bool
	Reason  string
}

// P2Quantile is a streaming quantile estimator (the P² algorithm of Jain &
// Chlamtac) used by the Symptom Sampler to track the P95 of each numeric
// parameter without storing observations.
type P2Quantile struct {
	p     float64
	count int
	q     [5]float64
	n     [5]int
	np    [5]float64
	dn    [5]float64
	init  []float64
}

// NewP2Quantile creates an estimator for quantile p in (0, 1). It panics on
// out-of-range p; the quantile is a static configuration constant.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("sampler: quantile must be in (0, 1)")
	}
	e := &P2Quantile{p: p}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Count returns the number of observations seen.
func (e *P2Quantile) Count() int { return e.count }

// Observe feeds one observation.
func (e *P2Quantile) Observe(x float64) {
	e.count++
	if len(e.init) < 5 {
		e.init = append(e.init, x)
		if len(e.init) == 5 {
			sort.Float64s(e.init)
			for i := 0; i < 5; i++ {
				e.q[i] = e.init[i]
				e.n[i] = i + 1
				e.np[i] = 1 + 4*e.dn[i]
			}
		}
		return
	}
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 3
		for i := 0; i < 4; i++ {
			if x < e.q[i+1] {
				k = i
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.np[i] - float64(e.n[i])
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			qp := e.parabolic(i, float64(sign))
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.n[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i int, d float64) float64 {
	n := e.n
	q := e.q
	a := d / float64(n[i+1]-n[i-1])
	b := float64(n[i]-n[i-1]+int(d)) * (q[i+1] - q[i]) / float64(n[i+1]-n[i])
	c := float64(n[i+1]-n[i]-int(d)) * (q[i] - q[i-1]) / float64(n[i]-n[i-1])
	return q[i] + a*(b+c)
}

func (e *P2Quantile) linear(i, sign int) float64 {
	return e.q[i] + float64(sign)*(e.q[i+sign]-e.q[i])/float64(e.n[i+sign]-e.n[i])
}

// Quantile returns the current estimate. With fewer than 5 observations it
// returns the max observed so far (conservative: nothing is an outlier yet).
func (e *P2Quantile) Quantile() float64 {
	if len(e.init) < 5 {
		if len(e.init) == 0 {
			return 0
		}
		max := e.init[0]
		for _, v := range e.init[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}
	return e.q[2]
}

// SymptomConfig controls the Symptom Sampler.
type SymptomConfig struct {
	// Percentile above which numeric parameters count as outliers
	// (paper default 0.95).
	Percentile float64
	// OutlierMargin multiplies the quantile estimate: only values above
	// margin * P95 are sampled. A margin above 1 separates genuine
	// "unusually large" values (the paper's wording) from the 5% of
	// ordinary values that sit above any continuous P95 by construction.
	OutlierMargin float64
	// AbnormalWords are the user-defined substrings that mark a string
	// parameter as symptomatic (e.g. "error", "exception", "502").
	AbnormalWords []string
	// MinObservations gates outlier decisions until an attribute's
	// estimator has seen enough data to be meaningful.
	MinObservations int
}

// DefaultSymptomConfig returns the paper's defaults.
func DefaultSymptomConfig() SymptomConfig {
	return SymptomConfig{
		Percentile:      0.95,
		OutlierMargin:   1.5,
		AbnormalWords:   []string{"error", "exception", "fail", "timeout", "502", "503", "500"},
		MinObservations: 100,
	}
}

// quantKey identifies one (pattern, attribute-slot) estimator. A struct key
// hashes both strings in place — no per-Inspect concatenation.
type quantKey struct {
	patternID string
	attr      string
}

// Symptom monitors parameter blocks in the Params Buffer and marks traces
// with abnormal values or outliers as sampled.
type Symptom struct {
	mu  sync.Mutex
	cfg SymptomConfig
	// One quantile estimator per (pattern, attribute-slot): spans sharing a
	// pattern execute the same work, so their numeric distributions are
	// comparable.
	quantiles map[quantKey]*P2Quantile
	words     []string // ASCII words, matched by the fold scan
	wideWords []string // words with non-ASCII runes, matched via ToLower
	// templateAbnormal memoizes hasAbnormalWord per learned template text:
	// the verdict depends only on the text and the configured words, and a
	// pattern's templates recur on every one of its spans.
	templateAbnormal map[string]bool
}

// NewSymptom creates a Symptom Sampler. Zero-value fields of cfg fall back
// to paper defaults.
func NewSymptom(cfg SymptomConfig) *Symptom {
	d := DefaultSymptomConfig()
	if cfg.Percentile == 0 {
		cfg.Percentile = d.Percentile
	}
	if cfg.OutlierMargin == 0 {
		cfg.OutlierMargin = d.OutlierMargin
	}
	if cfg.AbnormalWords == nil {
		cfg.AbnormalWords = d.AbnormalWords
	}
	if cfg.MinObservations == 0 {
		cfg.MinObservations = d.MinObservations
	}
	var words, wideWords []string
	for _, w := range cfg.AbnormalWords {
		lw := strings.ToLower(w)
		if isASCII(lw) {
			words = append(words, lw)
		} else {
			wideWords = append(wideWords, lw)
		}
	}
	return &Symptom{
		cfg:              cfg,
		quantiles:        map[quantKey]*P2Quantile{},
		words:            words,
		wideWords:        wideWords,
		templateAbnormal: map[string]bool{},
	}
}

// Inspect examines one parsed span's parameters against the pattern it
// matched and decides whether its trace is symptomatic.
func (s *Symptom) Inspect(pat *parser.SpanPattern, ps *parser.ParsedSpan) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range pat.Attrs {
		if i >= len(ps.AttrParams) {
			break
		}
		params := ps.AttrParams[i]
		if a.IsNum {
			if len(params) == 0 {
				continue
			}
			v := parseFloat(params[0])
			key := quantKey{patternID: pat.ID, attr: a.Key}
			q, ok := s.quantiles[key]
			if !ok {
				q = NewP2Quantile(s.cfg.Percentile)
				s.quantiles[key] = q
			}
			threshold := q.Quantile() * s.cfg.OutlierMargin
			seen := q.Count()
			q.Observe(v)
			if seen >= s.cfg.MinObservations && v > threshold {
				return Decision{Sampled: true, Reason: "outlier:" + a.Key}
			}
			continue
		}
		// Abnormal words can sit in either half of the split value: in a
		// variable parameter ("ERR_5003") or in the learned template
		// itself ("NullPointerException at line <*>").
		abnormal, ok := s.templateAbnormal[a.Pattern]
		if !ok {
			abnormal = s.hasAbnormalWord(a.Pattern)
			s.templateAbnormal[a.Pattern] = abnormal
		}
		if abnormal {
			return Decision{Sampled: true, Reason: "abnormal:" + a.Key}
		}
		for _, p := range params {
			if s.hasAbnormalWord(p) {
				return Decision{Sampled: true, Reason: "abnormal:" + a.Key}
			}
		}
	}
	return Decision{}
}

func (s *Symptom) hasAbnormalWord(v string) bool {
	for _, w := range s.words {
		if containsFold(v, w) {
			return true
		}
	}
	if len(s.wideWords) > 0 {
		// Non-ASCII abnormal words take the old lowered-copy path; the
		// default word list is all ASCII, so this allocates only when a
		// deployment configures Unicode words.
		lv := strings.ToLower(v)
		for _, w := range s.wideWords {
			if strings.Contains(lv, w) {
				return true
			}
		}
	}
	return false
}

// isASCII reports whether s contains only ASCII bytes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// containsFold reports whether v contains the (already lowercase) word w
// under ASCII case folding, without materializing a lowered copy of v the
// way strings.ToLower did on every inspected parameter.
func containsFold(v, w string) bool {
	if len(w) == 0 {
		return true
	}
	for i := 0; i+len(w) <= len(v); i++ {
		match := true
		for j := 0; j < len(w); j++ {
			c := v[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != w[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func parseFloat(s string) float64 {
	var v float64
	var neg bool
	i := 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	intPart := 0.0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		intPart = intPart*10 + float64(s[i]-'0')
	}
	v = intPart
	if i < len(s) && s[i] == '.' {
		i++
		frac, scale := 0.0, 1.0
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			frac = frac*10 + float64(s[i]-'0')
			scale *= 10
		}
		v += frac / scale
	}
	// Exponent and special forms are rare in offsets; fall back to 0 on
	// anything else rather than pulling in strconv error handling here.
	if neg {
		v = -v
	}
	return v
}

// EdgeCaseConfig controls the Edge-Case Sampler.
type EdgeCaseConfig struct {
	// RareShare: a topo pattern whose share of mounted sub-traces is below
	// this fraction is an edge case (default 0.01).
	RareShare float64
	// MinTotal gates decisions until the library has seen enough
	// sub-traces (default 200).
	MinTotal int
}

// DefaultEdgeCaseConfig returns the defaults.
func DefaultEdgeCaseConfig() EdgeCaseConfig {
	return EdgeCaseConfig{RareShare: 0.01, MinTotal: 200}
}

// EdgeCase monitors topology patterns and samples traces with rare
// execution paths.
type EdgeCase struct {
	cfg EdgeCaseConfig
	lib *topo.Library
}

// NewEdgeCase creates an Edge-Case Sampler over a topo library.
func NewEdgeCase(cfg EdgeCaseConfig, lib *topo.Library) *EdgeCase {
	d := DefaultEdgeCaseConfig()
	if cfg.RareShare == 0 {
		cfg.RareShare = d.RareShare
	}
	if cfg.MinTotal == 0 {
		cfg.MinTotal = d.MinTotal
	}
	return &EdgeCase{cfg: cfg, lib: lib}
}

// Inspect decides whether a sub-trace that matched patternID follows a rare
// execution path.
func (e *EdgeCase) Inspect(patternID string) Decision {
	if e.lib.Total() < uint64(e.cfg.MinTotal) {
		return Decision{}
	}
	if share := e.lib.Rarity(patternID); share > 0 && share < e.cfg.RareShare {
		return Decision{Sampled: true, Reason: "edge-case"}
	}
	return Decision{}
}

// Head is hash-based head sampling: the decision is a pure function of the
// trace ID, so every node agrees without coordination.
type Head struct{ rate float64 }

// NewHead creates a head sampler with the given rate in [0, 1].
func NewHead(rate float64) *Head { return &Head{rate: rate} }

// Sample decides for a trace ID.
func (h *Head) Sample(traceID string) bool {
	if h.rate >= 1 {
		return true
	}
	if h.rate <= 0 {
		return false
	}
	f := fnv.New64a()
	f.Write([]byte(traceID))
	return float64(f.Sum64()%1_000_000)/1_000_000 < h.rate
}

// Tail is predicate tail sampling: the whole trace is observed at the
// backend and retained iff the predicate holds for any span.
type Tail struct {
	Predicate func(attrs map[string]string) bool
}

// NewTailOnFlag creates the evaluation's tail sampler: retain traces where
// the given attribute equals "true" (the benchmark tags injected anomalies
// with is_abnormal, §5).
func NewTailOnFlag(flag string) *Tail {
	return &Tail{Predicate: func(attrs map[string]string) bool {
		return attrs[flag] == "true"
	}}
}
