// Package predict learns kernel/model access order online and predicts
// what a serving fleet will need next: a first-order Markov chain over the
// observed access sequence (what tends to follow what) fused with a
// count-min frequency sketch with aging (what is hot right now). The
// predictive prefetcher consumes both — sequence predictions above a
// confidence threshold drive cross-tenant prefetches, popularity ranking
// drives bring-up prefetch on fresh nodes — always capped by a prefetch
// budget, because a wrong prediction is paid for in wasted loads. This is
// a beyond-paper extension of §III's proactive loading: the paper prefetches
// the kernels a known model will need; under multi-model traffic the model
// itself must be predicted first, so this package supplies that missing
// policy layer (DESIGN.md §16, ProMoE-style prediction from PAPERS.md).
//
// Paper anchor: beyond-paper policy layer for §III proactive loading — predicts *which* model under multi-model traffic (DESIGN.md §16; ProMoE-style, PAPERS.md).
package predict

import (
	"hash/fnv"
	"slices"
	"strings"
)

// Prediction is one predicted item with the predictor's confidence in it
// (a probability: transition frequency for sequence predictions, traffic
// share for popularity predictions).
type Prediction struct {
	Item       string
	Confidence float64
}

// sortPredictions orders by descending confidence, breaking ties by item
// name so output is deterministic.
func sortPredictions(ps []Prediction) {
	slices.SortFunc(ps, func(a, b Prediction) int {
		switch {
		case a.Confidence > b.Confidence:
			return -1
		case a.Confidence < b.Confidence:
			return 1
		default:
			return strings.Compare(a.Item, b.Item)
		}
	})
}

// Markov is a first-order Markov chain over an observed item sequence.
// Rows are transition counts; confidence is the row-relative frequency.
type Markov struct {
	counts map[string]map[string]int
	totals map[string]int
}

// NewMarkov returns an empty chain.
func NewMarkov() *Markov {
	return &Markov{counts: make(map[string]map[string]int), totals: make(map[string]int)}
}

// Observe records one observed transition from -> to.
func (m *Markov) Observe(from, to string) {
	if from == "" || to == "" {
		return
	}
	row := m.counts[from]
	if row == nil {
		row = make(map[string]int)
		m.counts[from] = row
	}
	row[to]++
	m.totals[from]++
}

// Next returns up to k successors of from whose transition frequency is at
// least minConf, most confident first.
func (m *Markov) Next(from string, k int, minConf float64) []Prediction {
	total := m.totals[from]
	if total == 0 || k <= 0 {
		return nil
	}
	var out []Prediction
	for item, n := range m.counts[from] {
		conf := float64(n) / float64(total)
		if conf >= minConf {
			out = append(out, Prediction{Item: item, Confidence: conf})
		}
	}
	sortPredictions(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Sketch is a count-min frequency sketch with aging: every DecayEvery
// observations all counters halve, so the estimate tracks the live
// distribution instead of the all-time one — a popularity re-rank mid-run
// overtakes the old head within a few decay periods.
type Sketch struct {
	cnt        [sketchRows][sketchCols]uint32
	decayEvery int
	obs        int
	total      uint64 // decayed observation mass, for share estimates
}

// The sketch's dimensions: 4 hash rows of 512 counters.
const (
	sketchRows = 4
	sketchCols = 512
)

// NewSketch returns a 4×512 sketch whose counters halve every decayEvery
// observations (64 when non-positive).
func NewSketch(decayEvery int) *Sketch {
	if decayEvery <= 0 {
		decayEvery = 64
	}
	return &Sketch{decayEvery: decayEvery}
}

// splitmix64 finalizes a hash so per-row variants avalanche (the same
// finalizer the fault injector uses for per-access streams).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Sketch) index(item string, row int) int {
	h := fnv.New64a()
	h.Write([]byte(item))
	return int(splitmix64(h.Sum64()+uint64(row)) % sketchCols)
}

// Observe counts one occurrence of item, aging the sketch when due.
func (s *Sketch) Observe(item string) {
	for r := range sketchRows {
		s.cnt[r][s.index(item, r)]++
	}
	s.total++
	s.obs++
	if s.obs%s.decayEvery == 0 {
		for r := range s.cnt {
			for c := range s.cnt[r] {
				s.cnt[r][c] /= 2
			}
		}
		s.total /= 2
	}
}

// Estimate returns the (aged) occurrence estimate for item: the minimum
// across rows, the usual count-min upper bound.
func (s *Sketch) Estimate(item string) uint32 {
	est := uint32(0)
	for r := range sketchRows {
		c := s.cnt[r][s.index(item, r)]
		if r == 0 || c < est {
			est = c
		}
	}
	return est
}

// Mass returns the total decayed observation mass (the denominator for
// traffic-share estimates).
func (s *Sketch) Mass() uint64 { return s.total }

// Config parameterizes a Predictor. The zero value gets usable defaults.
type Config struct {
	// MinConfidence is the threshold below which sequence predictions are
	// suppressed (default 0.25): prefetching on a weak signal wastes the
	// budget.
	MinConfidence float64
	// Budget caps predictions returned per query (default 2): it is the
	// prediction-side half of the prefetch budget.
	Budget int
	// DecayEvery is the frequency sketch's aging period in observations
	// (default 64).
	DecayEvery int
}

func (c *Config) fill() {
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.25
	}
	if c.Budget <= 0 {
		c.Budget = 2
	}
}

// Predictor fuses the Markov chain and the frequency sketch over one
// observed access stream. It is deliberately model-agnostic: items are
// opaque strings (model abbreviations in the serving experiments, but any
// kernel or object identifier works).
type Predictor struct {
	cfg    Config
	markov *Markov
	sketch *Sketch
	last   string
	seen   map[string]bool
	items  []string // first-seen order, for deterministic ranking
}

// New returns an empty predictor.
func New(cfg Config) *Predictor {
	cfg.fill()
	return &Predictor{
		cfg:    cfg,
		markov: NewMarkov(),
		sketch: NewSketch(cfg.DecayEvery),
		seen:   make(map[string]bool),
	}
}

// Observe feeds one access: it counts toward popularity and records the
// transition from the previous access.
func (p *Predictor) Observe(item string) {
	if item == "" {
		return
	}
	p.sketch.Observe(item)
	p.markov.Observe(p.last, item)
	p.last = item
	if !p.seen[item] {
		p.seen[item] = true
		p.items = append(p.items, item)
	}
}

// Follow predicts what tends to come after item, budget-capped and
// confidence-thresholded.
func (p *Predictor) Follow(item string) []Prediction {
	return p.markov.Next(item, p.cfg.Budget, p.cfg.MinConfidence)
}

// Hot returns the k currently hottest observed items by aged sketch
// estimate, most popular first, with confidence as estimated traffic
// share. Items below the confidence threshold are dropped: a fresh node
// should not spend bring-up budget on the cold tail.
func (p *Predictor) Hot(k int) []Prediction {
	mass := p.sketch.Mass()
	if mass == 0 || k <= 0 {
		return nil
	}
	var out []Prediction
	for _, item := range p.items {
		share := float64(p.sketch.Estimate(item)) / float64(mass)
		if share >= p.cfg.MinConfidence {
			out = append(out, Prediction{Item: item, Confidence: share})
		}
	}
	sortPredictions(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
