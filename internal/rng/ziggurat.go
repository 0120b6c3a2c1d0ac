package rng

import "math"

// Ziggurat samplers for the standard normal and the unit exponential
// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
// Variables", JSS 5(8), 2000), in a 64-bit-draw variant: one Uint64
// supplies the layer index from its low bits and a 53-bit magnitude from
// its high bits, so no bit serves twice. More than 98% of draws take the
// fast path — one Uint64, one compare and one multiply, no Log, Exp or
// Sqrt — and the rare wedge and tail draws keep the result exact.

// ziggurat holds one density's layer tables. Layer i (0 < i < n) is the
// rectangle [0, x[i]] × [f(x[i]), f(x[i+1])]; layer 0 is the rectangle
// [0, r] × [0, f(r)] plus the tail beyond r, stretched to the virtual
// width x[0] = v/f(r). Every layer has area v.
type ziggurat struct {
	k []uint64  // x[i+1]/x[i] scaled to 2^53: magnitudes below it are accepted outright
	w []float64 // x[i]/2^53: magnitude → x
	f []float64 // f(x[i])
}

// newZiggurat builds the tables for the decreasing density f (inverse
// finv) with n layers, tail start r and layer area v.
func newZiggurat(n int, r, v float64, f, finv func(float64) float64) ziggurat {
	x := make([]float64, n+1)
	x[0] = v / f(r)
	x[1] = r
	for i := 1; i < n-1; i++ {
		x[i+1] = finv(f(x[i]) + v/x[i])
	}
	x[n] = 0 // the top layer's peak; f(0) = 1 by construction
	z := ziggurat{k: make([]uint64, n), w: make([]float64, n), f: make([]float64, n+1)}
	for i := 0; i < n; i++ {
		z.k[i] = uint64(x[i+1] / x[i] * (1 << 53))
		z.w[i] = x[i] / (1 << 53)
	}
	for i := range x {
		z.f[i] = f(x[i])
	}
	return z
}

const (
	normLayers = 128
	normR      = 3.442619855899
	normV      = 9.91256303526217e-3
	expLayers  = 256
	expR       = 7.69711747013104972
	expV       = 3.949659822581572e-3
)

var (
	zigNorm = newZiggurat(normLayers, normR, normV,
		func(x float64) float64 { return math.Exp(-0.5 * x * x) },
		func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) })
	zigExp = newZiggurat(expLayers, expR, expV,
		func(x float64) float64 { return math.Exp(-x) },
		func(y float64) float64 { return -math.Log(y) })
)

// NormFloat64 returns a standard normal variate (ziggurat). Bits 0-6 of
// the draw pick the layer, bit 7 the sign, bits 11-63 the magnitude.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & (normLayers - 1)
		m := u >> 11
		x := float64(m) * zigNorm.w[i]
		if m >= zigNorm.k[i] {
			if i == 0 {
				x = normR + r.normTail()
			} else if zigNorm.f[i]+r.Float64()*(zigNorm.f[i+1]-zigNorm.f[i]) >= math.Exp(-0.5*x*x) {
				continue
			}
		}
		if u&normLayers != 0 {
			return -x
		}
		return x
	}
}

// normTail draws the excess of a normal variate over normR given that it
// lies beyond normR (Marsaglia 1964).
func (r *RNG) normTail() float64 {
	for {
		x := -math.Log(r.float64Open()) / normR
		y := -math.Log(r.float64Open())
		if y+y >= x*x {
			return x
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1)
// (ziggurat). Bits 0-7 of the draw pick the layer, bits 11-63 the
// magnitude; the tail is memoryless, so it restarts past expR.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & (expLayers - 1)
		m := u >> 11
		x := float64(m) * zigExp.w[i]
		if m < zigExp.k[i] {
			return x
		}
		if i == 0 {
			return expR - math.Log(r.float64Open())
		}
		if zigExp.f[i]+r.Float64()*(zigExp.f[i+1]-zigExp.f[i]) < math.Exp(-x) {
			return x
		}
	}
}

// float64Open returns a uniform value in the open interval (0, 1).
func (r *RNG) float64Open() float64 {
	return (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
}

// exp is e^x for the samplers, table-driven: x = (256k + j)·ln2/256 + r
// with |r| <= ln2/512, so e^x = 2^k · 2^(j/256) · e^r, where 2^(j/256)
// comes from a table and e^r from a degree-4 polynomial evaluated in
// two parallel halves. Its relative error is below 1e-15 — far under any
// sampled distribution's resolution — at about half the latency of
// math.Exp's longer series. Arguments outside ±700, where scaling could
// leave the normal range, go to math.Exp.
func exp(x float64) float64 {
	if !(x > -700 && x < 700) {
		return math.Exp(x)
	}
	const shift = 0x1.8p52 // adding it rounds to an integer held in the low mantissa bits
	kd := x*(expTableSize/math.Ln2) + shift
	k := int64(math.Float64bits(kd) - math.Float64bits(shift))
	kd -= shift
	r := x - kd*(ln2Hi/expTableSize) - kd*(ln2Lo/expTableSize)
	r2 := r * r
	p := (1 + r) + r2*((1.0/2+r*(1.0/6))+r2*(1.0/24))
	v := exp2Table[k&(expTableSize-1)] * p
	return math.Float64frombits(math.Float64bits(v) + uint64(k>>expTableBits)<<52)
}

const (
	expTableBits = 8
	expTableSize = 1 << expTableBits
	// ln 2 split so that kd·ln2Hi is exact for |kd| < 2^20.
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
)

// exp2Table[j] is 2^(j/expTableSize).
var exp2Table = func() (t [expTableSize]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / expTableSize)
	}
	return t
}()
