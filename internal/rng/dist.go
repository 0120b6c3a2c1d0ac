package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF, so construction is O(n) and each
// draw is O(log n). Warehouse binary popularity and allocation-site
// popularity are both approximately Zipfian, which is what produces the
// "top 50 binaries cover only ~50% of malloc cycles" shape in Fig. 3.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return searchCDF(z.cdf, u)
}

// Weights returns the probability mass of each rank.
func (z *Zipf) Weights() []float64 {
	w := make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		w[i] = c - prev
		prev = c
	}
	return w
}

// Dist is a sampler of float64 values; all workload size and lifetime
// models satisfy it.
type Dist interface {
	// Sample draws the next value using the provided generator.
	Sample(r *RNG) float64
}

// Constant is a Dist that always returns V.
type Constant float64

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return float64(c) }

// Uniform is a Dist over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// LogNormalDist is a Dist with underlying normal (Mu, Sigma); values are
// optionally clamped to [Min, Max] when those bounds are non-zero.
type LogNormalDist struct {
	Mu, Sigma float64
	Min, Max  float64
}

// Sample implements Dist.
func (d LogNormalDist) Sample(r *RNG) float64 {
	return clamp(r.LogNormal(d.Mu, d.Sigma), d.Min, d.Max)
}

// ParetoDist is a Dist with scale Xm and shape Alpha, optionally capped at
// Max when Max > 0. Heavy-tailed object lifetimes are Pareto-like.
type ParetoDist struct {
	Xm, Alpha float64
	Max       float64
}

// Sample implements Dist.
func (d ParetoDist) Sample(r *RNG) float64 {
	return clamp(r.Pareto(d.Xm, d.Alpha), 0, d.Max)
}

// clamp bounds v to [lo, hi]; a zero bound is unset.
func clamp(v, lo, hi float64) float64 {
	if lo != 0 && v < lo {
		return lo
	}
	if hi != 0 && v > hi {
		return hi
	}
	return v
}

// ExpDist is an exponential Dist with the given Mean.
type ExpDist struct{ Mean float64 }

// Sample implements Dist.
func (d ExpDist) Sample(r *RNG) float64 { return d.Mean * r.ExpFloat64() }

// Component is one branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Dist
}

// Mixture is a weighted mixture of distributions. The fleet object-size
// distribution (Fig. 7) and the per-size-band lifetime distributions
// (Fig. 8) are modeled as mixtures.
//
// NewMixture compiles each branch into an arm: LogNormalDist and
// ParetoDist branches are drawn in log space from a table of their
// parameters, with no interface call and no Log or Pow, and leave log
// space through a single Exp, after any Warp.
type Mixture struct {
	components []Component
	cdf        []float64
	arms       []arm
}

// NewMixture builds a mixture; weights are normalized and must sum to a
// positive value.
func NewMixture(components ...Component) *Mixture {
	if len(components) == 0 {
		panic("rng: empty mixture")
	}
	total := 0.0
	for _, c := range components {
		if c.Weight < 0 {
			panic(fmt.Sprintf("rng: negative mixture weight %v", c.Weight))
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("rng: mixture weights sum to zero")
	}
	m := &Mixture{
		components: components,
		cdf:        make([]float64, len(components)),
		arms:       make([]arm, len(components)),
	}
	acc := 0.0
	for i, c := range components {
		acc += c.Weight / total
		m.cdf[i] = acc
		m.arms[i] = compileArm(c.Dist)
	}
	return m
}

// Sample implements Dist.
func (m *Mixture) Sample(r *RNG) float64 { return m.SampleWarped(r, Warp{}) }

// SampleWarped draws one value with w applied to it.
func (m *Mixture) SampleWarped(r *RNG, w Warp) float64 {
	u := r.Float64()
	i := searchCDF(m.cdf, u)
	if i >= len(m.arms) {
		i = len(m.arms) - 1
	}
	return m.arms[i].sample(r, w)
}

// SampleWarped draws one value from d with w applied to it: in log space
// inside a Mixture's draw, on the drawn value otherwise. The zero Warp
// makes it d.Sample.
func SampleWarped(d Dist, r *RNG, w Warp) float64 {
	if m, ok := d.(*Mixture); ok {
		return m.SampleWarped(r, w)
	}
	return w.Apply(d.Sample(r))
}

// Warp is a power-law knee: values up to a cutoff pass through, and a
// value v above it becomes cutoff·(v/cutoff)^gamma. In log space that
// is a linear map above ln cutoff, so a draw made in log space pays for
// it with the Exp it needs anyway. The zero Warp is the identity.
type Warp struct {
	cutoff, lc, gamma float64
}

// NewWarp returns the knee at cutoff > 0 with exponent gamma > 0.
func NewWarp(cutoff, gamma float64) Warp {
	return Warp{cutoff: cutoff, lc: math.Log(cutoff), gamma: gamma}
}

// Apply warps a value drawn in linear space.
func (w Warp) Apply(v float64) float64 {
	if w.gamma == 0 || !(v > w.cutoff) {
		return v
	}
	return exp(w.lc + w.gamma*(math.Log(v)-w.lc))
}

// arm is one mixture branch compiled for log-space sampling.
type arm struct {
	kind armKind
	// ln v = a + b·N(0,1) (armLogNormal) or a + b·Exp(1) (armPareto).
	a, b float64
	// lo and hi clamp ln v (±Inf when unset); min and max are the same
	// bounds in linear space, returned exactly by a clamped draw that
	// the warp leaves alone.
	lo, hi   float64
	min, max float64
	// dist is an armOther branch, sampled in linear space.
	dist Dist
}

type armKind uint8

const (
	armOther armKind = iota
	armLogNormal
	armPareto
)

func compileArm(d Dist) arm {
	switch d := d.(type) {
	case LogNormalDist:
		a := arm{kind: armLogNormal, a: d.Mu, b: d.Sigma}
		a.setBounds(d.Min, d.Max)
		return a
	case ParetoDist:
		a := arm{kind: armPareto, a: math.Log(d.Xm), b: 1 / d.Alpha}
		a.setBounds(0, d.Max)
		return a
	}
	return arm{kind: armOther, dist: d}
}

// setBounds records the clamp [lo, hi]; a zero bound is unset.
func (a *arm) setBounds(lo, hi float64) {
	a.min, a.max = lo, hi
	a.lo, a.hi = math.Inf(-1), math.Inf(1)
	if lo != 0 {
		a.lo = math.Log(lo)
	}
	if hi != 0 {
		a.hi = math.Log(hi)
	}
}

// sample draws ln v, clamps it, applies w and leaves log space.
func (a *arm) sample(r *RNG, w Warp) float64 {
	var lx float64
	switch a.kind {
	case armLogNormal:
		lx = a.a + a.b*r.NormFloat64()
	case armPareto:
		lx = a.a + a.b*r.ExpFloat64()
	default:
		return w.Apply(a.dist.Sample(r))
	}
	exact := 0.0
	if lx < a.lo {
		lx, exact = a.lo, a.min
	} else if lx > a.hi {
		lx, exact = a.hi, a.max
	}
	if w.gamma != 0 && lx > w.lc {
		return exp(w.lc + w.gamma*(lx-w.lc))
	}
	if exact != 0 {
		return exact
	}
	return exp(lx)
}

// searchCDF returns the smallest index i with cdf[i] >= u, exactly as
// sort.SearchFloat64s does. Mixture and Discrete CDFs are a handful of
// entries, where a forward scan beats the binary search's unpredictable
// branches; long CDFs (Zipf ranks) still take the binary path.
func searchCDF(cdf []float64, u float64) int {
	if len(cdf) <= 8 {
		for i, c := range cdf {
			if c >= u {
				return i
			}
		}
		return len(cdf)
	}
	return sort.SearchFloat64s(cdf, u)
}

// Components returns the mixture branches (normalized weights).
func (m *Mixture) Components() []Component {
	out := make([]Component, len(m.components))
	prev := 0.0
	for i, c := range m.components {
		out[i] = Component{Weight: m.cdf[i] - prev, Dist: c.Dist}
		prev = m.cdf[i]
	}
	return out
}

// Discrete samples from an explicit finite distribution of (value, weight)
// pairs; used for size-class-aligned object size models.
type Discrete struct {
	values []float64
	cdf    []float64
}

// NewDiscrete builds a Discrete sampler. len(values) must equal
// len(weights) and weights must sum to a positive value.
func NewDiscrete(values, weights []float64) *Discrete {
	if len(values) != len(weights) || len(values) == 0 {
		panic("rng: mismatched discrete distribution")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative discrete weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: discrete weights sum to zero")
	}
	d := &Discrete{values: append([]float64(nil), values...), cdf: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		d.cdf[i] = acc
	}
	return d
}

// Sample implements Dist.
func (d *Discrete) Sample(r *RNG) float64 {
	u := r.Float64()
	i := searchCDF(d.cdf, u)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}
