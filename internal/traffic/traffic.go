// Package traffic generates seeded inference request streams in virtual
// time: Zipfian model popularity, diurnal rate cycles and flash crowds —
// the internet-scale arrival shapes the serving experiments replay against
// the fleet. Because time is virtual, generating millions of arrivals is a
// plain in-memory loop: no sleeping, no wall clock, and a fixed seed yields
// a byte-identical stream on every run. These generators are the stand-in
// for the production request traces the paper's testbed would face: the
// paper evaluates single cold starts (§IV–§V); this package supplies the
// beyond-paper traffic under which proactive loading (§III) must decide
// *what* to load, not just *when* (DESIGN.md §16).
//
// Paper anchor: beyond-paper arrival streams (Zipf, diurnal, flash crowds) under which §III proactive loading must choose *what* to load (DESIGN.md §16).
package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Request is one synthetic inference arrival.
type Request struct {
	At    time.Duration `json:"at"`
	Model string        `json:"model"`
}

// Diurnal modulates the base rate with a sinusoidal day/night cycle:
// rate(t) = base * (1 + Amplitude*sin(2*pi*t/Period)). The zero value
// disables the cycle.
type Diurnal struct {
	Period    time.Duration
	Amplitude float64 // 0 <= Amplitude < 1
}

// FlashCrowd is one rate surge: the multiplier ramps linearly from 1 at
// Onset to Peak over Ramp, holds Peak for Hold, and decays linearly back
// to 1 over Decay. Arrivals attributable to the surge (the excess over the
// baseline rate) target Model when it is set; otherwise they follow the
// ambient popularity distribution.
type FlashCrowd struct {
	Onset time.Duration
	Ramp  time.Duration
	Hold  time.Duration
	Decay time.Duration
	Peak  float64 // rate multiplier at the peak, >= 1
	Model string  // surge target; "" spreads the surge across all models
}

// multiplier returns the crowd's rate factor at t.
func (fc FlashCrowd) multiplier(t time.Duration) float64 {
	switch {
	case fc.Peak <= 1 || t < fc.Onset:
		return 1
	case t < fc.Onset+fc.Ramp:
		return 1 + (fc.Peak-1)*float64(t-fc.Onset)/float64(fc.Ramp)
	case t < fc.Onset+fc.Ramp+fc.Hold:
		return fc.Peak
	case t < fc.Onset+fc.Ramp+fc.Hold+fc.Decay:
		left := fc.Onset + fc.Ramp + fc.Hold + fc.Decay - t
		return 1 + (fc.Peak-1)*float64(left)/float64(fc.Decay)
	default:
		return 1
	}
}

// Shift re-ranks model popularity at a point in time: from At on, Rank[i]
// gives the index (into Config.Models) of the i-th most popular model.
// Shifts model the mid-run popularity churn real serving sees — a newly
// launched model taking over the head of the Zipf curve.
type Shift struct {
	At   time.Duration
	Rank []int
}

// Config parameterizes one generator. Models and Rate are required; the
// rest defaults to a plain stationary Zipfian stream.
type Config struct {
	// Models are the model identifiers arrivals draw from.
	Models []string
	// Exponent is the Zipf skew s: the i-th ranked model gets weight
	// 1/(i+1)^s (default 1.1).
	Exponent float64
	// Rank is the initial popularity order: Rank[i] indexes Models for the
	// i-th most popular model (default: Models order).
	Rank []int
	// Rate is the baseline mean arrival rate in requests per (virtual)
	// second (default 100).
	Rate float64
	// Diurnal, Crowds and Shifts shape the stream over time.
	Diurnal Diurnal
	Crowds  []FlashCrowd
	Shifts  []Shift
	// Seed drives every random draw; equal seeds yield byte-identical
	// streams.
	Seed int64
}

func (c *Config) fill() {
	if c.Exponent == 0 {
		c.Exponent = 1.1
	}
	if c.Rate == 0 {
		c.Rate = 100
	}
	if len(c.Rank) == 0 {
		c.Rank = make([]int, len(c.Models))
		for i := range c.Rank {
			c.Rank[i] = i
		}
	}
}

// validRank reports whether rank is a permutation of [0, n).
func validRank(rank []int, n int) bool {
	if len(rank) != n {
		return false
	}
	seen := make([]bool, n)
	for _, r := range rank {
		if r < 0 || r >= n || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

func (c *Config) validate() error {
	var errs []error
	if len(c.Models) == 0 {
		errs = append(errs, errors.New("traffic: no models"))
	}
	if c.Rate < 0 || c.Exponent < 0 {
		errs = append(errs, errors.New("traffic: negative rate or exponent"))
	}
	if c.Diurnal.Amplitude < 0 || c.Diurnal.Amplitude >= 1 {
		if c.Diurnal.Amplitude != 0 {
			errs = append(errs, fmt.Errorf("traffic: diurnal amplitude %v outside [0,1)", c.Diurnal.Amplitude))
		}
	}
	if c.Diurnal.Amplitude > 0 && c.Diurnal.Period <= 0 {
		errs = append(errs, errors.New("traffic: diurnal amplitude without period"))
	}
	if !validRank(c.Rank, len(c.Models)) {
		errs = append(errs, fmt.Errorf("traffic: rank %v is not a permutation of %d models", c.Rank, len(c.Models)))
	}
	for i, s := range c.Shifts {
		if !validRank(s.Rank, len(c.Models)) {
			errs = append(errs, fmt.Errorf("traffic: shift %d rank %v is not a permutation of %d models", i, s.Rank, len(c.Models)))
		}
		if i > 0 && s.At < c.Shifts[i-1].At {
			errs = append(errs, fmt.Errorf("traffic: shift %d out of time order", i))
		}
	}
	for i, fc := range c.Crowds {
		if fc.Peak < 1 {
			errs = append(errs, fmt.Errorf("traffic: crowd %d peak %v < 1", i, fc.Peak))
		}
		if fc.Ramp <= 0 {
			errs = append(errs, fmt.Errorf("traffic: crowd %d needs a positive ramp", i))
		}
	}
	return errors.Join(errs...)
}

// Generator produces one arrival stream. It is a non-homogeneous Poisson
// process realized by thinning: candidate arrivals are drawn at the peak
// rate and accepted with probability rate(t)/peak, which keeps the draw
// count (and therefore determinism) independent of how the rate curve is
// composed.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	now    time.Duration
	cum    []float64 // cumulative Zipf weights by rank position
	rank   []int     // current popularity permutation
	shifts int       // shifts already applied
	lamMax float64   // thinning envelope, requests/second
}

// New validates cfg and returns a deterministic generator.
func New(cfg Config) (*Generator, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), rank: cfg.Rank}
	g.cum = make([]float64, len(cfg.Models))
	sum := 0.0
	for i := range cfg.Models {
		sum += 1 / math.Pow(float64(i+1), cfg.Exponent)
		g.cum[i] = sum
	}
	g.lamMax = cfg.Rate * (1 + cfg.Diurnal.Amplitude)
	for _, fc := range cfg.Crowds {
		if fc.Peak > 1 {
			g.lamMax *= fc.Peak
		}
	}
	return g, nil
}

// baseRate is the diurnal-modulated baseline rate at t, before crowds.
func (g *Generator) baseRate(t time.Duration) float64 {
	r := g.cfg.Rate
	if d := g.cfg.Diurnal; d.Amplitude > 0 {
		r *= 1 + d.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(d.Period))
	}
	return r
}

// pickModel draws a model from the current Zipf ranking.
func (g *Generator) pickModel() string {
	u := g.rng.Float64() * g.cum[len(g.cum)-1]
	for pos, c := range g.cum {
		if u <= c {
			return g.cfg.Models[g.rank[pos]]
		}
	}
	return g.cfg.Models[g.rank[len(g.rank)-1]]
}

// Next returns the next arrival. Every call advances virtual time; the
// stream never ends.
func (g *Generator) Next() Request {
	for {
		// Exponential inter-arrival at the envelope rate.
		gap := g.rng.ExpFloat64() / g.lamMax
		g.now += time.Duration(gap * float64(time.Second))
		for g.shifts < len(g.cfg.Shifts) && g.now >= g.cfg.Shifts[g.shifts].At {
			g.rank = g.cfg.Shifts[g.shifts].Rank
			g.shifts++
		}
		base := g.baseRate(g.now)
		full := base
		var surge *FlashCrowd
		for i := range g.cfg.Crowds {
			m := g.cfg.Crowds[i].multiplier(g.now)
			full *= m
			if m > 1 && g.cfg.Crowds[i].Model != "" {
				surge = &g.cfg.Crowds[i]
			}
		}
		if g.rng.Float64()*g.lamMax > full {
			continue // thinned: the candidate fell above the rate curve
		}
		model := ""
		if surge != nil && g.rng.Float64() < (full-base)/full {
			// This arrival exists only because of the surge; it targets the
			// crowd's model.
			model = surge.Model
		} else {
			model = g.pickModel()
		}
		return Request{At: g.now, Model: model}
	}
}

// Generate returns the next n arrivals.
func (g *Generator) Generate(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
