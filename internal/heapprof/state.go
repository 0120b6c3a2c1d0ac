package heapprof

import (
	"slices"
	"sort"

	"wsmalloc/internal/snapshot"
)

// EncodeState serializes the profiler: the sampling RNG cursor and
// byte countdown, the live sample table (sorted by address), the
// cumulative and per-class lifetime accumulators (sorted by key), and
// the captured peak view. Config is reconstructed by New before
// DecodeState overlays state.
func (p *Profiler) EncodeState(e *snapshot.Encoder) {
	e.Section("heapprof")
	e.Bool(p != nil)
	if p == nil {
		return
	}
	p.r.EncodeState(e)
	e.String(p.workload)
	e.I64(p.bytesUntil)

	addrs := make([]uint64, 0, len(p.live))
	for a := range p.live {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Len(len(addrs))
	for _, a := range addrs {
		s := p.live[a]
		e.U64(a)
		e.String(s.workload)
		e.Int(s.class)
		e.Int(s.classBytes)
		e.Int(s.size)
		e.I64(s.bornAt)
		e.F64(s.objW)
		e.F64(s.byteW)
	}
	e.I64(p.liveSamples)

	keys := make([]siteKey, 0, len(p.cum))
	for k := range p.cum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	e.Len(len(keys))
	for _, k := range keys {
		acc := p.cum[k]
		e.String(k.workload)
		e.Int(k.class)
		e.Int(k.classBytes)
		e.Int(k.lifeExp)
		e.I64(acc.samples)
		e.F64(acc.objects)
		e.F64(acc.bytes)
	}
	e.I64(p.cumSamples)

	classes := make([]int, 0, len(p.classLife))
	for c := range p.classLife {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	e.Len(len(classes))
	for _, c := range classes {
		cl := p.classLife[c]
		e.Int(c)
		e.I64(cl.sumDecade)
		e.I64(cl.samples)
	}

	e.Len(len(p.peak))
	for _, s := range p.peak {
		e.String(s.Workload)
		e.Int(s.SizeClass)
		e.Int(s.ClassBytes)
		e.Int(s.LifeExp)
		e.String(s.Life)
		e.I64(s.Samples)
		e.F64(s.Objects)
		e.F64(s.Bytes)
	}
	e.I64(p.peakSamples)
	e.I64(p.peakNowNs)
	e.F64(p.peakObjects)
	e.F64(p.peakBytes)
	e.I64(p.peakArmBytes)
}

// DecodeState restores profiler state saved by EncodeState; it returns
// the profiler because a snapshot from a profiling-disabled run
// restores to nil. The receiver must come from New with the same
// Config as the encoding run.
func (p *Profiler) DecodeState(d *snapshot.Decoder) *Profiler {
	d.Section("heapprof")
	had := d.Bool()
	if d.Err() != nil {
		return p
	}
	if had != (p != nil) {
		d.Fail("heapprof: snapshot profiler enabled=%v, constructed enabled=%v", had, p != nil)
		return p
	}
	if p == nil {
		return nil
	}
	p.r.DecodeState(d)
	p.workload = d.String()
	p.bytesUntil = d.I64()

	n := d.Len(8 + 4 + 8*5 + 8)
	p.live = make(map[uint64]liveSample, n)
	for i := 0; i < n; i++ {
		a := d.U64()
		s := liveSample{
			workload:   d.String(),
			class:      d.Int(),
			classBytes: d.Int(),
			size:       d.Int(),
			bornAt:     d.I64(),
			objW:       d.F64(),
			byteW:      d.F64(),
		}
		if d.Err() != nil {
			return p
		}
		p.live[a] = s
	}
	p.liveSamples = d.I64()
	// The counting filter is derived state: rebuild it from the live
	// table (bucket counts are order-independent).
	p.liveFilter = [liveFilterSize]uint32{}
	for a := range p.live {
		p.liveFilter[liveFilterIdx(a)]++
	}

	n = d.Len(4 + 8*6)
	p.cum = make(map[siteKey]siteAcc, n)
	for i := 0; i < n; i++ {
		k := siteKey{workload: d.String(), class: d.Int(), classBytes: d.Int(), lifeExp: d.Int()}
		acc := siteAcc{samples: d.I64(), objects: d.F64(), bytes: d.F64()}
		if d.Err() != nil {
			return p
		}
		p.cum[k] = acc
	}
	p.cumSamples = d.I64()

	n = d.Len(8 * 3)
	p.classLife = make(map[int]classLifeAcc, n)
	for i := 0; i < n; i++ {
		c := d.Int()
		cl := classLifeAcc{sumDecade: d.I64(), samples: d.I64()}
		if d.Err() != nil {
			return p
		}
		p.classLife[c] = cl
	}

	n = d.Len(4 + 4 + 8*6)
	p.peak = make([]Site, 0, n)
	for i := 0; i < n; i++ {
		s := Site{
			Workload:   d.String(),
			SizeClass:  d.Int(),
			ClassBytes: d.Int(),
			LifeExp:    d.Int(),
			Life:       d.String(),
			Samples:    d.I64(),
			Objects:    d.F64(),
			Bytes:      d.F64(),
		}
		if d.Err() != nil {
			return p
		}
		p.peak = append(p.peak, s)
	}
	p.peakSamples = d.I64()
	p.peakNowNs = d.I64()
	p.peakObjects = d.F64()
	p.peakBytes = d.F64()
	p.peakArmBytes = d.I64()
	return p
}
