package main

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Probe sizes. Every probe is driven by the workload's own machines
// (profile, platform, seed), so a probe's numbers belong to the workload
// whose traced run printed them.
const (
	// probeEvents is how many events the generation and replay probes
	// draw per machine.
	probeEvents = 40000
	// replaySampleEvery times one malloc or free in this many. A timed
	// malloc is bracketed by Stats() reads for tier attribution, which
	// are too costly to make around every call.
	replaySampleEvery = 8
	// Lifetime warp as workload.DefaultOptions sets it: lifetimes past
	// the cutoff are compressed to cutoff*(life/cutoff)^gamma.
	warpCutoffNs = 20 * workload.Millisecond
)

// event is one drawn allocation: arrival gap, size, warped lifetime and
// the CPU of the issuing thread.
type event struct {
	gap  int64
	size int
	life int64
	cpu  int
}

// layerProbes times the workload, core and tier layers from outside:
// core.New, the workload's preload, event generation, and an allocator
// replay of the generated events under each of the workload's configs.
func layerProbes(tr *tracer, m metrics, machines []fleet.Machine, cfgs []core.Config, gamma float64) error {
	var newUs, preloadMs []float64
	for _, mc := range machines {
		for _, cfg := range cfgs {
			topo := topology.New(mc.Platform)
			tr.begin("core.New")
			core.New(cfg, topo)
			newUs = append(newUs, float64(tr.end())/1e3)
		}
		a := core.New(cfgs[0], topology.New(mc.Platform))
		opts := workload.DefaultOptions(mc.Seed)
		opts.Duration = 1 // stop right after preload
		tr.begin("workload.Run")
		workload.Run(mc.App, a, opts)
		preloadMs = append(preloadMs, float64(tr.end())/1e6)
	}
	m.set("core.new_us", median(newUs), "us")
	m.set("workload.preload_ms", median(preloadMs), "ms")

	var genTime time.Duration
	streams := make([][]event, len(machines))
	for i, mc := range machines {
		tr.begin("workload.gen")
		streams[i] = generate(mc, gamma)
		genTime += tr.end()
	}
	m.set("workload.gen_ns_per_event", float64(genTime)/float64(len(machines)*probeEvents), "ns")

	var rp replayTotals
	for i, mc := range machines {
		for _, cfg := range cfgs {
			tr.begin("core.replay")
			err := rp.replay(mc, cfg, streams[i])
			tr.end()
			if err != nil {
				return fmt.Errorf("replay probe, machine %d (%s): %w", mc.ID, mc.App.Name, err)
			}
		}
	}
	rp.report(m)
	return nil
}

// generate draws one machine's probe events with workload.Run's samplers:
// size from the profile's size distribution, lifetime from its lifetime
// model (then warped), arrival gap exponential at the profile's mean gap
// over its initial thread count, and a LIFO-biased thread pick.
func generate(mc fleet.Machine, gamma float64) []event {
	p := mc.App
	r := rng.New(mc.Seed ^ 0x9e3779b97f4a7c15)
	threads := p.Threads.Count(r, 0)
	if threads < 1 {
		threads = 1
	}
	cpuSet := p.CPUSet
	if n := mc.Platform.NumCPUs(); cpuSet > n {
		cpuSet = n
	}
	if cpuSet < 1 {
		cpuSet = 1
	}
	gap := p.MeanAllocGapNs / float64(threads)
	out := make([]event, probeEvents)
	for k := range out {
		dt := int64(gap * r.ExpFloat64())
		if dt < 1 {
			dt = 1
		}
		size := int(p.SizeDist.Sample(r))
		if size < 1 {
			size = 1
		}
		u := r.Float64()
		out[k] = event{
			gap:  dt,
			size: size,
			life: warp(p.Lifetime.Sample(r, size), gamma),
			cpu:  int(u*u*float64(threads)) % cpuSet,
		}
	}
	return out
}

func warp(life int64, gamma float64) int64 {
	if life <= warpCutoffNs {
		if life < 1 {
			return 1
		}
		return life
	}
	c := float64(warpCutoffNs)
	return int64(c * math.Pow(float64(life)/c, gamma))
}

// live is one replayed object awaiting its death time.
type live struct {
	die  int64
	addr uint64
	size int
	cpu  int
}

type deathHeap []live

func (h deathHeap) Len() int           { return len(h) }
func (h deathHeap) Less(i, j int) bool { return h[i].die < h[j].die }
func (h deathHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deathHeap) Push(x any)        { *h = append(*h, x.(live)) }
func (h *deathHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// tierTime accumulates the sampled calls attributed to one tier.
type tierTime struct {
	n  int64
	ns time.Duration
}

func (t *tierTime) add(d time.Duration) { t.n++; t.ns += d }

func (t tierTime) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n)
}

// replayTotals sums the replay probe over every machine and config.
type replayTotals struct {
	malloc, free                    tierTime
	percpu, transfer, cfl, pageheap tierTime

	allocHits, allocMisses int64
	tcHits, tcMisses       int64
	spansCreated           int64
	heapAllocs             int64
	mmapCalls              int64
	allocFailures          int64
}

// replay feeds one event stream into a fresh allocator: frees at each
// object's death time, background Tick every virtual ms, and the
// malloc. One call in replaySampleEvery is timed; a timed malloc is
// attributed to the deepest tier whose counter advanced across it.
func (rp *replayTotals) replay(mc fleet.Machine, cfg core.Config, events []event) error {
	a := core.New(cfg, topology.New(mc.Platform))
	deaths := make(deathHeap, 0, len(events))
	var now, nextTick int64
	nextTick = workload.Millisecond
	sample := 0
	free := func(o live) error {
		sample++
		if sample%replaySampleEvery != 0 {
			_, err := a.TryFree(o.addr, o.size, o.cpu)
			return err
		}
		t0 := time.Now()
		_, err := a.TryFree(o.addr, o.size, o.cpu)
		rp.free.add(time.Since(t0))
		return err
	}
	for _, ev := range events {
		now += ev.gap
		for len(deaths) > 0 && deaths[0].die <= now {
			if err := free(heap.Pop(&deaths).(live)); err != nil {
				return err
			}
		}
		if now >= nextTick {
			a.Tick(now)
			nextTick += workload.Millisecond
		}
		var addr uint64
		var err error
		if sample++; sample%replaySampleEvery != 0 {
			addr, _, err = a.TryMalloc(ev.size, ev.cpu)
		} else {
			before := a.Stats()
			t0 := time.Now()
			addr, _, err = a.TryMalloc(ev.size, ev.cpu)
			d := time.Since(t0)
			after := a.Stats()
			rp.malloc.add(d)
			switch {
			case after.FrontEnd.AllocHits > before.FrontEnd.AllocHits:
				rp.percpu.add(d)
			case after.Transfer.Hits > before.Transfer.Hits:
				rp.transfer.add(d)
			case after.Heap.Allocs > before.Heap.Allocs:
				rp.pageheap.add(d)
			default:
				rp.cfl.add(d)
			}
		}
		if err != nil {
			rp.allocFailures++
			continue
		}
		heap.Push(&deaths, live{die: now + ev.life, addr: addr, size: ev.size, cpu: ev.cpu})
	}

	st := a.Stats()
	if st.Mallocs-st.Frees != st.LiveObjects {
		return fmt.Errorf("mallocs %d - frees %d != live objects %d", st.Mallocs, st.Frees, st.LiveObjects)
	}
	rp.allocHits += st.FrontEnd.AllocHits
	rp.allocMisses += st.FrontEnd.AllocMisses
	rp.tcHits += st.Transfer.Hits
	rp.tcMisses += st.Transfer.Misses
	rp.spansCreated += st.CFLSpansCreated
	rp.heapAllocs += st.Heap.Allocs
	rp.mmapCalls += a.OS().MmapCalls()

	// Drain untimed: a burst of frees at one instant is not the
	// steady-state free path.
	for _, o := range deaths {
		if _, err := a.TryFree(o.addr, o.size, o.cpu); err != nil {
			return err
		}
	}
	if st := a.Stats(); st.LiveObjects != 0 || st.Mallocs-st.Frees != 0 {
		return fmt.Errorf("after drain: %d live objects, mallocs %d, frees %d", st.LiveObjects, st.Mallocs, st.Frees)
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (rp *replayTotals) report(m metrics) {
	m.set("core.malloc_ns", rp.malloc.mean(), "ns")
	m.set("core.free_ns", rp.free.mean(), "ns")
	m.set("percpu.malloc_ns", rp.percpu.mean(), "ns")
	m.set("transfercache.malloc_ns", rp.transfer.mean(), "ns")
	m.set("centralfreelist.malloc_ns", rp.cfl.mean(), "ns")
	m.set("pageheap.malloc_ns", rp.pageheap.mean(), "ns")
	m.set("percpu.alloc_hit_ratio", ratio(rp.allocHits, rp.allocHits+rp.allocMisses), "ratio")
	m.set("transfercache.hit_ratio", ratio(rp.tcHits, rp.tcHits+rp.tcMisses), "ratio")
	m.set("centralfreelist.spans_created", float64(rp.spansCreated), "count")
	m.set("pageheap.allocs", float64(rp.heapAllocs), "count")
	m.set("mem.mmap_calls", float64(rp.mmapCalls), "count")
	m.set("core.alloc_failures", float64(rp.allocFailures), "count")
	fmt.Printf("replay samples: malloc %d (percpu %d, transfercache %d, centralfreelist %d, pageheap %d), free %d\n",
		rp.malloc.n, rp.percpu.n, rp.transfer.n, rp.cfl.n, rp.pageheap.n, rp.free.n)
}
