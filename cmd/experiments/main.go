// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-seed N] [-scale smoke|quick|full] [-j N] [-audit] [-chaos]
//	            [-telemetry] [-heapprof] [-metrics-out BASE]
//	            [-design POINTS] [-design-out BASE] [all|<name>...]
//
// Names are fig3..fig17, table1, table2, combined, designspace,
// ablation-l, ablation-c, ablation-capacity, selftest, chaos, lifecycle
// and churn. With no arguments it lists the registry.
//
// -j bounds the worker pool that experiments fan out over (machines in
// fleet A/Bs, profiles in benchmark sweeps, the experiments themselves);
// the default is all cores, -j 1 is the sequential legacy path, and the
// output is bit-identical at any -j for the same seed.
//
// -audit runs every profile-driven run (Figs. 5, 6b, 9, 15) under the
// full shadow-heap sanitizer with periodic invariant audits; -chaos
// additionally injects a deterministic mmap failure rate into those runs.
// The fleet A/B figures are neither audited nor chaos-injected. The
// command exits non-zero if any audit trips or a self-checking
// experiment fails.
//
// -telemetry instruments every profile-driven run (Figs. 5, 6b, 9, 15);
// each report carries its runs' merged registry, and the reports fold in
// argument order into one aggregate, dumped mallocz-style after the
// reports; -metrics-out writes BASE.prom, BASE.json and BASE.mallocz
// instead. -heapprof additionally attaches the sampled heap profiler to
// every profile-driven run and dumps the merged heapz/allocz/peakheapz
// views (BASE.heapz and BASE.heapz.json with -metrics-out), folded the
// same way.
//
// -design selects the points swept by the "designspace" experiment as a
// semicolon-separated list of design-point strings
// ("baseline;optimized;percpu=ewma,cfl=bestfit"); the default is the
// full registry grid. -design-out writes the ranked leaderboard to
// BASE.json and BASE.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wsmalloc"
	"wsmalloc/internal/experiments"
	"wsmalloc/internal/fleet"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	scaleName := flag.String("scale", "quick", "experiment scale: smoke, quick, or full")
	workers := flag.Int("j", 0, "worker pool size for parallel execution (0 = all cores, 1 = sequential)")
	audit := flag.Bool("audit", false, "run every profile-driven run (Figs. 5, 6b, 9, 15) under the shadow-heap sanitizer with periodic invariant audits")
	chaos := flag.Bool("chaos", false, "inject a deterministic mmap failure rate into every profile-driven run (Figs. 5, 6b, 9, 15)")
	telemetryOn := flag.Bool("telemetry", false, "instrument every profile run and dump the aggregate metrics registry")
	heapprofOn := flag.Bool("heapprof", false, "attach the sampled heap profiler to every profile run and dump the merged views")
	metricsOut := flag.String("metrics-out", "", "write aggregated telemetry to BASE.prom, BASE.json and BASE.mallocz (implies -telemetry)")
	design := flag.String("design", "", "semicolon-separated design points for the designspace sweep (default: full registry grid)")
	designOut := flag.String("design-out", "", "write the designspace leaderboard to BASE.json and BASE.csv")
	flag.Parse()

	wsmalloc.SetExperimentWorkers(*workers)
	in := wsmalloc.ExperimentInstrumentation{Audit: *audit, Chaos: *chaos}
	if *telemetryOn || *metricsOut != "" {
		// Registries merge exactly; traces do not, so only the
		// mergeable metrics are aggregated.
		in.Telemetry = wsmalloc.TelemetryConfig{Enabled: true}
	}
	if *heapprofOn {
		in.HeapProfile = wsmalloc.DefaultHeapProfileConfig()
		in.HeapProfile.Seed = *seed
	}
	wsmalloc.InstrumentExperiments(in)
	if *design != "" || *designOut != "" {
		var points []wsmalloc.DesignPoint
		if *design != "" {
			for _, s := range strings.Split(*design, ";") {
				d, err := wsmalloc.ParseDesignPoint(strings.TrimSpace(s))
				if err != nil {
					fmt.Fprintf(os.Stderr, "-design: %v\n", err)
					os.Exit(2)
				}
				points = append(points, d)
			}
		}
		wsmalloc.SetDesignSpace(points, *designOut)
	}

	var scale wsmalloc.Scale
	switch *scaleName {
	case "smoke":
		scale = wsmalloc.ScaleSmoke
	case "quick":
		scale = wsmalloc.ScaleQuick
	case "full":
		scale = wsmalloc.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Println("available experiments (pass names or 'all'):")
		for _, r := range wsmalloc.Experiments() {
			fmt.Printf("  %-18s %s\n", r.Name, r.Desc)
		}
		return
	}

	var names []string
	if len(args) == 1 && args[0] == "all" {
		for _, r := range wsmalloc.Experiments() {
			names = append(names, r.Name)
		}
	} else {
		names = args
	}

	reports, err := wsmalloc.RunExperiments(names, *seed, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, rep := range reports {
		fmt.Println(rep)
		if rep.Failed {
			failed = true
		}
	}
	total := experiments.Fold(reports)
	if total.AuditTrips > 0 {
		fmt.Fprintf(os.Stderr, "audit: %d run(s) ended with invariant violations\n", total.AuditTrips)
		failed = true
	}
	x := fleet.RunExport{Profiles: total.HeapProfiles}
	if total.Telemetry != nil {
		x.Snapshots = []wsmalloc.TelemetrySnapshot{total.Telemetry.Snapshot("experiments", 0)}
	}
	if *metricsOut != "" {
		if err := (fleet.RunSpec{MetricsOut: *metricsOut}).Export(os.Stdout, x); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		// The dumps follow the reports' trailing blank line directly.
		if len(x.Snapshots) > 0 {
			if err := wsmalloc.WriteTelemetryMallocz(os.Stdout, x.Snapshots...); err != nil {
				fmt.Fprintf(os.Stderr, "mallocz: %v\n", err)
				os.Exit(1)
			}
		}
		if len(x.Profiles) > 0 {
			if err := wsmalloc.WriteHeapProfiles(os.Stdout, x.Profiles...); err != nil {
				fmt.Fprintf(os.Stderr, "heapz: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
