// NUCA topology: walk the fleet's platform generations, price
// cache-to-cache transfers (the paper's Fig. 11 measurement), and show
// how the NUCA-aware transfer cache keeps object reuse LLC-domain-local.
package main

import (
	"fmt"
	"log"

	"wsmalloc"
	"wsmalloc/internal/topology"
)

func main() {
	fmt.Println("fleet platform generations (hyperthreads grow 4x gen1->gen5):")
	for _, p := range wsmalloc.Platforms() {
		t := topology.New(p)
		fmt.Printf("  %-18s gen%-2d %3d CPUs  %2d LLC domains  inter/intra %.2fx  share %4.1f%%\n",
			p.Name, p.Generation, t.NumCPUs(), t.NumDomains(), t.InterIntraRatio(), p.FleetShare*100)
	}

	topo := topology.New(wsmalloc.DefaultPlatform())
	fmt.Printf("\ntransfer latency on %s:\n", topo.Platform().Name)
	cpus := []int{1, 2, topo.Platform().CoresPerDomain * topo.Platform().ThreadsPerCore, topo.NumCPUs() / 2}
	for _, b := range cpus {
		fmt.Printf("  CPU 0 -> CPU %-3d  %5.1f ns\n", b, topo.TransferLatencyNs(0, b))
	}

	// Demonstrate the §4.2 effect: producer on domain 0, consumer on
	// domain 1; the centralized cache hands domain-0-warm objects to
	// domain 1, the NUCA-aware one does not.
	demo := func(cfg wsmalloc.Config, label string) {
		alloc := wsmalloc.NewAllocator(cfg, wsmalloc.DefaultPlatform())
		d1cpu := topo.CPUsInDomain(1)[0]
		// Producer on domain 0 builds up objects and frees them in bulk,
		// overflowing the per-CPU cache into the transfer cache; a
		// consumer on domain 1 then allocates the same class.
		for round := 0; round < 10; round++ {
			var addrs []uint64
			for i := 0; i < 4000; i++ {
				addr, _ := alloc.Malloc(64, 0)
				addrs = append(addrs, addr)
			}
			for _, a := range addrs {
				alloc.Free(a, 64, 0)
			}
			addrs = addrs[:0]
			for i := 0; i < 4000; i++ {
				addr, _ := alloc.Malloc(64, d1cpu)
				addrs = append(addrs, addr)
			}
			for _, a := range addrs {
				alloc.Free(a, 64, d1cpu)
			}
		}
		st := alloc.Stats()
		total := st.Transfer.IntraDomain + st.Transfer.InterDomain
		if total == 0 {
			fmt.Printf("  %-22s no transfer cache reuse\n", label)
			return
		}
		fmt.Printf("  %-22s intra %5d  inter %5d  (%.1f%% cross-domain)\n",
			label, st.Transfer.IntraDomain, st.Transfer.InterDomain,
			float64(st.Transfer.InterDomain)/float64(total)*100)
	}
	fmt.Println("\ntransfer cache reuse locality:")
	demo(wsmalloc.Baseline(), "centralized (legacy)")
	// The paper's redesigns are named design points: the baseline with
	// one tier's policy changed.
	nuca, err := wsmalloc.ParseDesignPoint("nuca-transfer-cache")
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := wsmalloc.ConfigForDesign(nuca)
	if err != nil {
		log.Fatal(err)
	}
	demo(cfg, "NUCA-aware")
}
