package core_test

// Integration sweep: every workload profile against every design point,
// checking the cross-tier invariants that must hold regardless of
// configuration: mapped-byte conservation, non-negative fragmentation,
// full teardown reclamation, and telemetry consistency.

import (
	"fmt"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

func configs() map[string]core.Config {
	return map[string]core.Config{
		"baseline":  core.BaselineConfig(),
		"optimized": core.OptimizedConfig(),
		"percpu":    mustConfig("heterogeneous-percpu-cache"),
		"nuca":      mustConfig("nuca-transfer-cache"),
		"spanprio":  mustConfig("span-prioritization"),
		"lifetime":  mustConfig("lifetime-aware-filler"),
	}
}

func TestEveryProfileEveryConfigInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	for cfgName, cfg := range configs() {
		for _, p := range workload.AllProfiles() {
			p, cfg := p, cfg
			t.Run(fmt.Sprintf("%s/%s", cfgName, p.Name), func(t *testing.T) {
				t.Parallel()
				// Shrink the preload so the sweep stays fast; the
				// invariants don't depend on heap scale.
				p.PreloadBytes = 64 << 20
				alloc := core.New(cfg, topology.New(topology.Default()))
				opts := workload.DefaultOptions(11)
				opts.Duration = 8 * workload.Millisecond
				d := workload.NewDriver(p, alloc, opts)
				res := d.Run()
				st := res.Stats

				if st.Mallocs == 0 {
					t.Fatal("no allocations")
				}
				// Conservation: mapped = live rounded + external frag.
				if got := st.HeapBytes; got != st.LiveRoundedBytes+st.ExternalFragBytes() {
					t.Fatalf("conservation: mapped %d != live %d + frag %d",
						got, st.LiveRoundedBytes, st.ExternalFragBytes())
				}
				if st.InternalFragBytes() < 0 || st.ExternalFragBytes() < 0 {
					t.Fatalf("negative fragmentation: %+v", st.Frag)
				}
				if st.HugepageCoverage < 0 || st.HugepageCoverage > 1 {
					t.Fatalf("coverage out of range: %v", st.HugepageCoverage)
				}
				if st.Time.Total() <= 0 {
					t.Fatal("no time accounted")
				}
				if st.Mallocs-st.Frees != st.LiveObjects {
					t.Fatalf("op/live mismatch: %d - %d != %d",
						st.Mallocs, st.Frees, st.LiveObjects)
				}

				// Full teardown reclaims everything.
				d.DrainRemaining()
				alloc.DrainCaches()
				end := alloc.Stats()
				if end.LiveObjects != 0 || end.Heap.UsedBytes != 0 {
					t.Fatalf("teardown incomplete: live=%d heapUsed=%d",
						end.LiveObjects, end.Heap.UsedBytes)
				}
				if end.LiveRoundedBytes != 0 || end.LiveRequestedBytes != 0 {
					t.Fatalf("byte accounting residue: %d/%d",
						end.LiveRoundedBytes, end.LiveRequestedBytes)
				}
			})
		}
	}
}

func TestOptimizedNeverCorruptsUnderHintedMix(t *testing.T) {
	alloc := core.New(core.OptimizedConfig(), topology.New(topology.Default()))
	type obj struct {
		addr uint64
		size int
	}
	var live []obj
	for i := 0; i < 5000; i++ {
		size := 64 + (i*37)%(400<<10)
		var addr uint64
		if i%3 == 0 {
			addr, _ = alloc.MallocHinted(size, i%32, i%2 == 0)
		} else {
			addr, _ = alloc.Malloc(size, i%32)
		}
		live = append(live, obj{addr, size})
		if i%2 == 1 {
			v := live[0]
			live = live[1:]
			alloc.Free(v.addr, v.size, (i+7)%32)
		}
	}
	for _, v := range live {
		alloc.Free(v.addr, v.size, 0)
	}
	alloc.DrainCaches()
	if st := alloc.Stats(); st.Heap.UsedBytes != 0 {
		t.Fatalf("heap residue: %+v", st.Heap)
	}
}
