// Package profiler is the histogram fold behind the paper's
// characterization figures (§2.2): size CDFs by object count and by
// bytes (Fig. 7) and the size-binned lifetime distribution (Fig. 8). It
// samples nothing itself: experiments fold whole allocation streams into
// it with Record, and the profile warehouse folds heapprof's sampled,
// unbiased site rows with AddSiteWeighted.
package profiler

import (
	"fmt"
	"math"
	"strings"

	"wsmalloc/internal/stats"
)

// Bin layout: sizes in powers of two from 2^3 (8 B) to 2^40 (1 TiB);
// lifetimes in powers of ten from 1 µs to 10^7 seconds.
const (
	sizeMinExp = 3
	sizeMaxExp = 40

	lifeMinExp = 3  // 10^3 ns = 1 µs
	lifeMaxExp = 16 // 10^16 ns ≈ 115 days
)

// Profiler accumulates allocation observations.
type Profiler struct {
	sizeByCount *stats.LogHistogram
	sizeByBytes *stats.LogHistogram

	// life[sizeBin][lifeBin] counts recorded allocations.
	life [][]float64

	samples int64
}

// New creates an empty profiler.
func New() *Profiler {
	p := &Profiler{
		sizeByCount: stats.NewLogHistogram(sizeMinExp, sizeMaxExp),
		sizeByBytes: stats.NewLogHistogram(sizeMinExp, sizeMaxExp),
	}
	p.life = make([][]float64, sizeMaxExp-sizeMinExp+1)
	for i := range p.life {
		p.life[i] = make([]float64, lifeMaxExp-lifeMinExp+1)
	}
	return p
}

// Record records one allocation with unit weight.
func (p *Profiler) Record(size int, lifetimeNs int64) {
	p.samples++
	p.sizeByCount.Add(float64(size))
	p.sizeByBytes.AddWeighted(float64(size), float64(size))
	p.life[p.sizeBin(size)][p.lifeBin(lifetimeNs)]++
}

func (p *Profiler) sizeBin(size int) int {
	if size < 1 {
		size = 1
	}
	e := int(math.Floor(math.Log2(float64(size))))
	if e < sizeMinExp {
		e = sizeMinExp
	}
	if e > sizeMaxExp {
		e = sizeMaxExp
	}
	return e - sizeMinExp
}

func (p *Profiler) lifeBin(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	e := int(math.Floor(math.Log10(float64(ns))))
	if e < lifeMinExp {
		e = lifeMinExp
	}
	if e > lifeMaxExp {
		e = lifeMaxExp
	}
	return e - lifeMinExp
}

// Samples returns the number of recorded samples.
func (p *Profiler) Samples() int64 { return p.samples }

// SizeCDF evaluates both Fig. 7 curves at the given byte sizes, returning
// (byCount, byBytes) cumulative fractions.
func (p *Profiler) SizeCDF(xs []float64) (byCount, byBytes []float64) {
	byCount = make([]float64, len(xs))
	byBytes = make([]float64, len(xs))
	for i, x := range xs {
		byCount[i] = p.sizeByCount.CDFAt(x)
		byBytes[i] = p.sizeByBytes.CDFAt(x)
	}
	return byCount, byBytes
}

// LifetimeRow describes the lifetime distribution of one size bin.
type LifetimeRow struct {
	// SizeLo is the inclusive lower bound of the size bin in bytes.
	SizeLo float64 `json:"size_lo"`
	// Count is the number of samples in the bin.
	Count float64 `json:"count"`
	// Fraction[i] is the share of samples with lifetime in decade
	// 10^(lifeMinExp+i) ns.
	Fraction []float64 `json:"fraction"`
}

// LifetimeMatrix returns Fig. 8's data: per size bin, the distribution of
// lifetimes over decades.
func (p *Profiler) LifetimeMatrix() []LifetimeRow {
	var out []LifetimeRow
	for i, row := range p.life {
		total := 0.0
		for _, c := range row {
			total += c
		}
		if total == 0 {
			continue
		}
		fr := make([]float64, len(row))
		for j, c := range row {
			fr[j] = c / total
		}
		out = append(out, LifetimeRow{
			SizeLo:   math.Pow(2, float64(sizeMinExp+i)),
			Count:    total,
			Fraction: fr,
		})
	}
	return out
}

// ShortLivedFraction returns the fraction of sampled objects of at most
// maxSize bytes that lived no longer than cutoffNs.
func (p *Profiler) ShortLivedFraction(maxSize int, cutoffNs int64) float64 {
	maxBin := p.sizeBin(maxSize)
	cutBin := p.lifeBin(cutoffNs)
	var short, total float64
	for s := 0; s <= maxBin; s++ {
		for l, c := range p.life[s] {
			total += c
			if l <= cutBin {
				short += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return short / total
}

// LongLivedFraction returns the fraction of sampled objects of at least
// minSize bytes that lived longer than cutoffNs.
func (p *Profiler) LongLivedFraction(minSize int, cutoffNs int64) float64 {
	minBin := p.sizeBin(minSize)
	cutBin := p.lifeBin(cutoffNs)
	var long, total float64
	for s := minBin; s < len(p.life); s++ {
		for l, c := range p.life[s] {
			total += c
			if l > cutBin {
				long += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return long / total
}

// LifetimeEntropyBits returns the Shannon entropy (bits) of the lifetime
// decade distribution, averaged over populated size bins and weighted by
// sample count. It quantifies the "diversity" contrast of Fig. 8: fleet
// lifetimes spread across many decades (high entropy) while SPEC's are
// bimodal (low entropy).
func (p *Profiler) LifetimeEntropyBits() float64 {
	var sum, weight float64
	for _, row := range p.LifetimeMatrix() {
		h := 0.0
		for _, f := range row.Fraction {
			if f > 0 {
				h -= f * math.Log2(f)
			}
		}
		sum += h * row.Count
		weight += row.Count
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// String renders the lifetime matrix as an ASCII heat table.
func (p *Profiler) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s  lifetime decades (1µs..)\n", "size", "samples")
	for _, row := range p.LifetimeMatrix() {
		fmt.Fprintf(&b, "%-10.0f %10.0f  ", row.SizeLo, row.Count)
		for _, f := range row.Fraction {
			switch {
			case f == 0:
				b.WriteByte('.')
			case f < 0.05:
				b.WriteByte('-')
			case f < 0.2:
				b.WriteByte('+')
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
