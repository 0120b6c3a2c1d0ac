package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	matches := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split stream tracks parent: %d matches", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(11)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUniformMean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", mean)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(17)
	const n = 100000
	xm, alpha := 2.0, 1.5
	below := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto value %v below scale %v", v, xm)
		}
		// P(X <= 2*xm) = 1 - 2^-alpha
		if v <= 2*xm {
			below++
		}
	}
	want := 1 - math.Pow(2, -alpha)
	got := float64(below) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("Pareto CDF at 2xm: got %v want %v", got, want)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(23)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 1000, 1.0)
	const n = 200000
	counts := make([]int, 1000)
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
	// With s=1 over 1000 items, rank 0 holds ~13% of mass.
	if frac := float64(counts[0]) / n; frac < 0.10 || frac > 0.17 {
		t.Fatalf("rank-0 mass %v outside [0.10, 0.17]", frac)
	}
}

func TestZipfWeightsSumToOne(t *testing.T) {
	z := NewZipf(New(1), 50, 1.2)
	sum := 0.0
	for _, w := range z.Weights() {
		if w <= 0 {
			t.Fatal("non-positive zipf weight")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %v", sum)
	}
}

func TestMixtureSelectsAllComponents(t *testing.T) {
	r := New(37)
	m := NewMixture(
		Component{Weight: 1, Dist: Constant(1)},
		Component{Weight: 1, Dist: Constant(2)},
		Component{Weight: 2, Dist: Constant(3)},
	)
	counts := map[float64]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[m.Sample(r)]++
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 distinct outcomes, got %v", counts)
	}
	if p := float64(counts[3]) / n; math.Abs(p-0.5) > 0.02 {
		t.Fatalf("component-3 rate %v, want ~0.5", p)
	}
}

func TestMixtureComponentsNormalized(t *testing.T) {
	m := NewMixture(
		Component{Weight: 3, Dist: Constant(1)},
		Component{Weight: 1, Dist: Constant(2)},
	)
	comps := m.Components()
	if math.Abs(comps[0].Weight-0.75) > 1e-9 || math.Abs(comps[1].Weight-0.25) > 1e-9 {
		t.Fatalf("normalized weights wrong: %+v", comps)
	}
}

func TestDiscreteRespectsWeights(t *testing.T) {
	r := New(41)
	d := NewDiscrete([]float64{8, 16, 32}, []float64{8, 1, 1})
	const n = 50000
	counts := map[float64]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	if p := float64(counts[8]) / n; math.Abs(p-0.8) > 0.02 {
		t.Fatalf("value 8 rate %v, want ~0.8", p)
	}
}

func TestLogNormalClamp(t *testing.T) {
	r := New(43)
	d := LogNormalDist{Mu: 5, Sigma: 3, Min: 8, Max: 1024}
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 8 || v > 1024 {
			t.Fatalf("clamped lognormal out of range: %v", v)
		}
	}
}

func TestParetoDistCap(t *testing.T) {
	r := New(47)
	d := ParetoDist{Xm: 1, Alpha: 0.5, Max: 100}
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v > 100 {
			t.Fatalf("capped pareto exceeded max: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkMixtureSample(b *testing.B) {
	r := New(1)
	m := NewMixture(
		Component{Weight: 0.7, Dist: LogNormalDist{Mu: 4, Sigma: 1.5}},
		Component{Weight: 0.3, Dist: ParetoDist{Xm: 1024, Alpha: 1.1, Max: 1 << 30}},
	)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Sample(r)
	}
	_ = sink
}

// ksOneSample is the one-sample Kolmogorov-Smirnov distance between xs
// (sorted in place) and the continuous CDF cdf.
func ksOneSample(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// TestZigguratMatchesCDF: the ziggurat normal and exponential pass a
// one-sample KS test at alpha = 0.001 against the exact CDFs, and their
// tails (the draws past the base strip, taken by a separate path) carry
// the exact mass to within five standard errors.
func TestZigguratMatchesCDF(t *testing.T) {
	const n = 1_000_000
	crit := 1.95 / math.Sqrt(n)
	cases := []struct {
		name  string
		draw  func(r *RNG) float64
		cdf   func(float64) float64
		tail  func(float64) bool
		ptail float64
	}{
		{"normal", (*RNG).NormFloat64,
			func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) },
			func(x float64) bool { return math.Abs(x) > normR },
			math.Erfc(normR / math.Sqrt2)},
		{"exponential", (*RNG).ExpFloat64,
			func(x float64) float64 { return -math.Expm1(-x) },
			func(x float64) bool { return x > expR },
			math.Exp(-expR)},
	}
	for _, c := range cases {
		r := New(101)
		xs := make([]float64, n)
		tail := 0
		for i := range xs {
			xs[i] = c.draw(r)
			if c.tail(xs[i]) {
				tail++
			}
		}
		if d := ksOneSample(xs, c.cdf); d >= crit {
			t.Errorf("%s: KS D = %.5f >= %.5f", c.name, d, crit)
		}
		want := c.ptail * n
		if got := float64(tail); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("%s: %v draws in the tail, want %.0f", c.name, got, want)
		}
	}
}

// TestZigguratTables: every layer of both ziggurats has the declared
// area, and the top layer peaks at f(0) = 1.
func TestZigguratTables(t *testing.T) {
	for _, z := range []struct {
		name string
		zig  ziggurat
		n    int
		v    float64
	}{{"normal", zigNorm, normLayers, normV}, {"exponential", zigExp, expLayers, expV}} {
		if got := z.zig.f[z.n]; got != 1 {
			t.Errorf("%s: top layer peaks at %v, want 1", z.name, got)
		}
		for i := 1; i < z.n-1; i++ {
			x := z.zig.w[i] * (1 << 53)
			if area := x * (z.zig.f[i+1] - z.zig.f[i]); math.Abs(area/z.v-1) > 1e-9 {
				t.Fatalf("%s: layer %d has area %v, want %v", z.name, i, area, z.v)
			}
		}
		top := z.n - 1
		if area := z.zig.w[top] * (1 << 53) * (1 - z.zig.f[top]); math.Abs(area/z.v-1) > 1e-6 {
			t.Errorf("%s: top layer has area %v, want %v", z.name, area, z.v)
		}
	}
}

// TestMixtureArmMatchesDist: a mixture branch compiled to a log-space
// arm draws the same value, from the same stream, as the distribution
// it was compiled from.
func TestMixtureArmMatchesDist(t *testing.T) {
	for _, d := range []Dist{
		LogNormalDist{Mu: 5, Sigma: 3, Min: 8, Max: 1024},
		LogNormalDist{Mu: 11.5, Sigma: 1.6, Min: 1e3, Max: 1e6},
		ParetoDist{Xm: 60e9, Alpha: 0.9, Max: 7 * 86400e9},
		ExpDist{Mean: 4e6},
	} {
		a, b := New(7), New(7)
		m := NewMixture(Component{Weight: 1, Dist: d})
		for i := 0; i < 10000; i++ {
			a.Float64() // the mixture's branch pick
			want := d.Sample(a)
			if got := m.Sample(b); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%T draw %d: arm %v, dist %v", d, i, got, want)
			}
		}
	}
}

// TestWarpInLogSpace: a mixture draw warped in log space equals the
// warp applied to the same unwarped draw, and clamp atoms below the
// cutoff come back exact.
func TestWarpInLogSpace(t *testing.T) {
	m := NewMixture(
		Component{Weight: 0.5, Dist: LogNormalDist{Mu: 16, Sigma: 1.4, Min: 1e5, Max: 30e9}},
		Component{Weight: 0.3, Dist: LogNormalDist{Mu: 20, Sigma: 1.2, Min: 30e9, Max: 3600e9}},
		Component{Weight: 0.2, Dist: ParetoDist{Xm: 3600e9, Alpha: 1, Max: 7 * 86400e9}},
	)
	w := NewWarp(20e6, 0.22)
	a, b := New(3), New(3)
	for i := 0; i < 100000; i++ {
		got, want := m.SampleWarped(a, w), w.Apply(m.Sample(b))
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("draw %d: warped in log space %v, warped after %v", i, got, want)
		}
		if got <= 1e5 && got != 1e5 {
			t.Fatalf("draw %d: clamp atom %v is not exact", i, got)
		}
	}
}

// TestExpMatchesMath: the samplers' table-driven exp agrees with math.Exp
// to 1e-15 relative over the range draws use, and defers to it outside.
func TestExpMatchesMath(t *testing.T) {
	for x := -699.0; x < 699; x += 0.000937 {
		if got, want := exp(x), math.Exp(x); math.Abs(got-want) > 1e-15*want {
			t.Fatalf("exp(%v) = %v, math.Exp = %v", x, got, want)
		}
	}
	for _, x := range []float64{0, 1, -1, math.Ln2, 710, -750, math.Inf(1), math.Inf(-1)} {
		if got, want := exp(x), math.Exp(x); got != want && math.Abs(got-want) > 1e-15*want {
			t.Errorf("exp(%v) = %v, math.Exp = %v", x, got, want)
		}
	}
	if !math.IsNaN(exp(math.NaN())) {
		t.Error("exp(NaN) is not NaN")
	}
}
