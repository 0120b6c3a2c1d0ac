// Fleet A/B: reproduce the paper's §2.2 experimentation methodology in
// miniature — enrol a slice of a synthetic fleet, apply one redesign to
// the experiment group, and read the productivity deltas.
package main

import (
	"fmt"
	"log"

	"wsmalloc"
)

func main() {
	// A 200-machine fleet spread over five platform generations and the
	// five §2.3 production workloads.
	f := wsmalloc.NewFleet(200, 7)

	apps := map[string]int{}
	plats := map[string]int{}
	for _, m := range f.Machines {
		apps[m.App.Name]++
		plats[m.Platform.Name]++
	}
	fmt.Println("fleet composition:")
	for name, n := range apps {
		fmt.Printf("  app %-10s %3d machines\n", name, n)
	}
	for name, n := range plats {
		fmt.Printf("  platform %-16s %3d machines\n", name, n)
	}

	opts := wsmalloc.DefaultABOptions()
	opts.MinMachines = 8
	opts.DurationNs = 100 * 1_000_000
	// Enrolled machines fan out over the worker pool (0 = all cores);
	// results are bit-identical to Workers=1 for the same seed.
	opts.Workers = 0

	// Experiment 1: NUCA-aware transfer caches (paper Table 1).
	base := wsmalloc.Baseline()
	fmt.Println("\nA/B: NUCA-aware transfer caches vs baseline")
	nuca, err := wsmalloc.ParseDesignPoint("nuca-transfer-cache")
	if err != nil {
		log.Fatal(err)
	}
	nucaCfg, err := wsmalloc.ConfigForDesign(nuca)
	if err != nil {
		log.Fatal(err)
	}
	res := f.ABTest(base, nucaCfg, opts)
	fmt.Println(" ", res.Fleet.String())

	// Experiment 2: the full redesign (paper §4.5).
	fmt.Println("\nA/B: all four redesigns vs baseline")
	res = f.ABTest(base, wsmalloc.Optimized(), opts)
	fmt.Println(" ", res.Fleet.String())
	for _, row := range res.PerApp {
		fmt.Println("   ", row.String())
	}
}
