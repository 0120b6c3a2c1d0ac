package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/topology"
)

// refSampler is the previous sampling epoch, kept only as the reference
// for TestSamplersMatchReference: a polar-method normal with a cached
// second variate, a -log(u) exponential, a Pow Pareto, and lifetimes
// warped after the draw on their int64 value.
type refSampler struct {
	r        *rng.RNG
	hasGauss bool
	gauss    float64
}

func (s *refSampler) norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u, v, q float64
	for {
		u = 2*s.r.Float64() - 1
		v = 2*s.r.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(q) / q)
	s.gauss = v * f
	s.hasGauss = true
	return u * f
}

func (s *refSampler) exp() float64 {
	for {
		if u := s.r.Float64(); u > 0 {
			return -math.Log(u)
		}
	}
}

func (s *refSampler) sample(d rng.Dist) float64 {
	switch d := d.(type) {
	case rng.LogNormalDist:
		v := math.Exp(d.Mu + d.Sigma*s.norm())
		if d.Min != 0 && v < d.Min {
			v = d.Min
		}
		if d.Max != 0 && v > d.Max {
			v = d.Max
		}
		return v
	case rng.ParetoDist:
		var v float64
		for {
			if u := s.r.Float64(); u > 0 {
				v = d.Xm / math.Pow(u, 1/d.Alpha)
				break
			}
		}
		if d.Max > 0 && v > d.Max {
			v = d.Max
		}
		return v
	case rng.ExpDist:
		return d.Mean * s.exp()
	case *rng.Mixture:
		comps := d.Components()
		u, acc := s.r.Float64(), 0.0
		for _, c := range comps[:len(comps)-1] {
			if acc += c.Weight; u <= acc {
				return s.sample(c.Dist)
			}
		}
		return s.sample(comps[len(comps)-1].Dist)
	}
	// Constant, Uniform and Discrete draw no normal or exponential.
	return d.Sample(s.r)
}

func (s *refSampler) lifetime(m LifetimeModel, size int) int64 {
	return int64(s.sample(m.band(size)))
}

// refWarp is the previous epoch's Driver.warp.
func refWarp(life, cutoff int64, gamma float64) int64 {
	if life <= cutoff {
		if life < 1 {
			return 1
		}
		return life
	}
	c := float64(cutoff)
	return int64(c * math.Pow(float64(life)/c, gamma))
}

// ksStatistic is the two-sample Kolmogorov-Smirnov distance between two
// samples of equal size, exact under ties (the clamp atoms). It sorts
// both samples in place.
func ksStatistic(a, b []int64) float64 {
	slices.Sort(a)
	slices.Sort(b)
	n := float64(len(a))
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		v := min(a[i], b[j])
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		d = max(d, math.Abs(float64(i-j)/n))
	}
	return d
}

// TestSamplersMatchReference is the distribution gate of the sampling
// epoch: for every production profile, sizes, arrival gaps, unwarped
// lifetimes (the Fig. 8 path) and lifetimes warped at both gammas in use
// (0.22, the driver default; 0.15, the fleet and designspace runs) from
// the ziggurat, log-space samplers must pass a two-sample KS test at
// alpha = 0.001 against the previous epoch's samplers. The seeds are
// fixed, so the verdict is deterministic.
func TestSamplersMatchReference(t *testing.T) {
	const (
		n      = 1_000_000
		cutoff = 20 * Millisecond
	)
	crit := 1.95 * math.Sqrt(2.0/n)
	draw := func(seed uint64, f func(r *rng.RNG, ref *refSampler) (int64, int64)) (got, want []int64) {
		r, ref := rng.New(seed), &refSampler{r: rng.New(seed ^ 0x5eed)}
		got, want = make([]int64, n), make([]int64, n)
		for i := range got {
			got[i], want[i] = f(r, ref)
		}
		return got, want
	}
	atLeast1 := func(v int64) int64 { return max(v, 1) }
	size := func(v float64) int { return max(int(v), 1) }
	for pi, p := range ProductionProfiles() {
		gapNs := p.MeanAllocGapNs / float64(p.Threads.Base)
		quantities := map[string]func(r *rng.RNG, ref *refSampler) (int64, int64){
			"size": func(r *rng.RNG, ref *refSampler) (int64, int64) {
				return int64(size(p.SizeDist.Sample(r))), int64(size(ref.sample(p.SizeDist)))
			},
			"gap": func(r *rng.RNG, ref *refSampler) (int64, int64) {
				return atLeast1(int64(gapNs * r.ExpFloat64())), atLeast1(int64(gapNs * ref.exp()))
			},
			"lifetime": func(r *rng.RNG, ref *refSampler) (int64, int64) {
				return p.Lifetime.Sample(r, size(p.SizeDist.Sample(r))),
					ref.lifetime(p.Lifetime, size(ref.sample(p.SizeDist)))
			},
		}
		for _, gamma := range []float64{0.22, 0.15} {
			w := rng.NewWarp(float64(cutoff), gamma)
			quantities[fmt.Sprintf("warped%.2f", gamma)] = func(r *rng.RNG, ref *refSampler) (int64, int64) {
				return atLeast1(p.Lifetime.SampleWarped(r, size(p.SizeDist.Sample(r)), w)),
					refWarp(ref.lifetime(p.Lifetime, size(ref.sample(p.SizeDist))), cutoff, gamma)
			}
		}
		for qi, q := range []string{"size", "gap", "lifetime", "warped0.22", "warped0.15"} {
			t.Run(p.Name+"/"+q, func(t *testing.T) {
				got, want := draw(uint64(pi*16+qi+1), quantities[q])
				if d := ksStatistic(got, want); d >= crit {
					t.Errorf("KS D = %.5f >= %.5f (alpha 0.001, n = %d)", d, crit, n)
				} else {
					t.Logf("KS D = %.5f < %.5f", d, crit)
				}
			})
		}
	}
}

// BenchmarkDrawSites measures live generation per arrival: the gap,
// size, malloc-thread, lifetime and free-thread draws one allocation
// makes, through the driver's own draw sites (ns/op is ns per arrival).
func BenchmarkDrawSites(b *testing.B) {
	for _, p := range ProductionProfiles() {
		b.Run(p.Name, func(b *testing.B) {
			a := core.New(core.BaselineConfig(), topology.New(topology.Default()))
			d := NewDriver(p, a, DefaultOptions(1))
			d.setThreads(p.Threads.Base)
			var sink int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += d.drawGap()
				size := d.drawSize()
				sink += int64(d.drawMallocThread())
				sink += d.drawLifetime(size)
				sink += int64(d.drawFreeThread())
			}
			if sink == 0 {
				b.Fatal("no draws")
			}
		})
	}
}
