// Package rng provides deterministic pseudo-random number generation and
// the statistical distributions used to synthesize warehouse-scale
// allocation workloads.
//
// Every simulation in this repository must be reproducible from a single
// seed, so the package deliberately avoids math/rand's global state. The
// core generator is splitmix64 feeding a PCG-XSH-RR stream; both are tiny,
// fast, and well understood.
package rng

// RNG is a deterministic pseudo-random number generator (PCG-XSH-RR 64/32,
// extended to 64-bit outputs by pairing draws). It is not safe for
// concurrent use; give each goroutine its own stream via Split.
type RNG struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.state = splitmix64(&sm)
	r.inc = splitmix64(&sm) | 1 // stream selector must be odd
	r.next32()
	return r
}

// Split derives a new, independent generator from r. The child stream is a
// deterministic function of r's current state, so splitting is itself
// reproducible.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next32())<<32 | uint64(r.next32())
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return r.next32() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling over the top of the range keeps the result exact.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto variate with scale xm > 0 and shape alpha > 0.
// The density is alpha*xm^alpha / x^(alpha+1) for x >= xm. It is drawn
// in log space: ln(x/xm) is exponential with rate alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	return xm * exp(r.ExpFloat64()/alpha)
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
