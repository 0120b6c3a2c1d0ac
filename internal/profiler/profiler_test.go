package profiler

import (
	"math"
	"testing"

	"wsmalloc/internal/rng"
	"wsmalloc/internal/workload"
)

func TestSizeCDFOrdering(t *testing.T) {
	p := New()
	// 99 small objects and 1 large one dominating bytes.
	for i := 0; i < 99; i++ {
		p.Record(64, 1000)
	}
	p.Record(1<<20, 1000)
	byCount, byBytes := p.SizeCDF([]float64{1024})
	if byCount[0] < 0.98 {
		t.Fatalf("count CDF at 1KiB = %v", byCount[0])
	}
	if byBytes[0] > 0.01 {
		t.Fatalf("bytes CDF at 1KiB = %v (large object should dominate)", byBytes[0])
	}
}

func TestLifetimeMatrixShape(t *testing.T) {
	p := New()
	p.Record(64, int64(workload.Microsecond))
	p.Record(64, int64(workload.Second))
	p.Record(1<<20, workload.Day)
	rows := p.LifetimeMatrix()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		sum := 0.0
		for _, f := range row.Fraction {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row fractions sum to %v", sum)
		}
	}
}

func TestShortAndLongLivedFractions(t *testing.T) {
	p := New()
	for i := 0; i < 46; i++ {
		p.Record(256, int64(500*workload.Microsecond))
	}
	for i := 0; i < 54; i++ {
		p.Record(256, 10*workload.Second)
	}
	got := p.ShortLivedFraction(1024, workload.Millisecond)
	if math.Abs(got-0.46) > 1e-9 {
		t.Fatalf("short fraction = %v", got)
	}
	p2 := New()
	for i := 0; i < 65; i++ {
		p2.Record(2<<30, 2*workload.Day)
	}
	for i := 0; i < 35; i++ {
		p2.Record(2<<30, workload.Hour)
	}
	if got := p2.LongLivedFraction(1<<30, workload.Day); math.Abs(got-0.65) > 1e-9 {
		t.Fatalf("long fraction = %v", got)
	}
}

func TestFleetVsSPECLifetimeDiversity(t *testing.T) {
	// The paper's Fig. 8 argument: SPEC lifetimes are far less diverse
	// than fleet lifetimes.
	r := rng.New(9)
	record := func(p *Profiler, prof workload.Profile, n int) {
		for i := 0; i < n; i++ {
			size := int(prof.SizeDist.Sample(r))
			if size < 1 {
				size = 1
			}
			p.Record(size, prof.Lifetime.Sample(r, size))
		}
	}
	fleet := New()
	record(fleet, workload.Fleet(), 50000)
	spec := New()
	record(spec, workload.SPECLike(), 50000)
	fs := fleet.LifetimeEntropyBits()
	ss := spec.LifetimeEntropyBits()
	if fs <= ss {
		t.Fatalf("fleet lifetime entropy %.2f bits should exceed SPEC %.2f", fs, ss)
	}
}

func TestStringRenders(t *testing.T) {
	p := New()
	p.Record(64, 1000)
	if s := p.String(); len(s) == 0 {
		t.Fatal("empty render")
	}
}

func TestBinClamping(t *testing.T) {
	p := New()
	p.Record(1, 1)        // below both mins
	p.Record(1<<45, 1e18) // above both maxes
	if p.Samples() != 2 {
		t.Fatal("clamped records lost")
	}
	rows := p.LifetimeMatrix()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}
