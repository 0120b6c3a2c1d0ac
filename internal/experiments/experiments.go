// Package experiments regenerates every table and figure from the paper's
// evaluation: the characterization figures (Figs. 3-9), the four redesign
// evaluations (Figs. 10-17, Tables 1-2), the combined rollout estimate
// (§4.5), and the ablations over the design constants the paper calls out
// (L span-priority lists, the C capacity threshold, per-CPU cache
// capacity). Each experiment returns a structured result plus a printable
// report; EXPERIMENTS.md records paper-vs-measured for every entry.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Scale trades fidelity for wall-clock time: durations scale linearly.
// Scale 1 is the full experiment; benchmarks use smaller scales.
type Scale float64

// Standard scales.
const (
	ScaleFull  Scale = 1.0
	ScaleQuick Scale = 0.25
	ScaleSmoke Scale = 0.08
)

func (s Scale) duration(base int64) int64 {
	d := int64(float64(base) * float64(s))
	if d < 5*workload.Millisecond {
		d = 5 * workload.Millisecond
	}
	return d
}

// Report is a printable experiment outcome.
type Report struct {
	// ID is the figure/table identifier, e.g. "fig10" or "table1".
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Lines are the measured rows.
	Lines []string
	// Failed marks a self-checking experiment (selftest, chaos) whose
	// assertion tripped; cmd/experiments exits non-zero on it.
	Failed bool
	// Measures is what the report's instrumented runs measured.
	Measures
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	status := ""
	if r.Failed {
		status = " [FAILED]"
	}
	fmt.Fprintf(&b, "== %s: %s%s\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "   paper: %s\n", r.PaperClaim)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "   %s\n", l)
	}
	return b.String()
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Runner executes a named experiment.
type Runner struct {
	Name string
	Desc string
	Run  func(seed uint64, scale Scale) Report
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig3", "CDF of malloc cycles and allocated memory over binaries", Fig3},
		{"fig4", "allocation latency per cache tier", Fig4},
		{"fig5", "malloc cycles share and fragmentation ratio per workload", Fig5},
		{"fig6", "malloc cycle breakdown and fragmentation breakdown", Fig6},
		{"fig7", "CDF of allocated objects by count and bytes", Fig7},
		{"fig8", "object lifetime distribution by size, fleet vs SPEC", Fig8},
		{"fig9", "thread dynamics and per-vCPU miss disparity", Fig9},
		{"fig10", "memory reduction from heterogeneous per-CPU caches", Fig10},
		{"fig11", "intra- vs inter-domain transfer latency", Fig11},
		{"fig12", "NUCA-aware transfer cache structure", Fig12},
		{"table1", "NUCA-aware transfer cache fleet A/B", Table1},
		{"fig13", "span return rate vs live allocations (16B class)", Fig13},
		{"fig14", "memory reduction from span prioritization", Fig14},
		{"fig15", "pageheap in-use and fragmentation by component", Fig15},
		{"fig16", "span capacity vs return rate correlation", Fig16},
		{"table2", "lifetime-aware hugepage filler fleet A/B", Table2},
		{"fig17", "hugepage coverage and dTLB miss improvement", Fig17},
		{"combined", "combined rollout of all four redesigns", Combined},
		{"designspace", "design-space sweep: leaderboard over policy grid", DesignSpace},
		{"ablation-l", "sweep of span-priority list count L", AblationL},
		{"ablation-c", "sweep of lifetime capacity threshold C", AblationC},
		{"ablation-capacity", "per-CPU cache capacity and resizing sweep", AblationCapacity},
		{"selftest", "heap-integrity sanitizer corruption self-test", SelfTest},
		{"chaos", "fleet A/B under deterministic fault injection", ChaosFleet},
		{"lifecycle", "OOM-kill/restart recovery: cold caches and fragmentation", Lifecycle},
		{"churn", "fleet A/B under machine churn with cold restarts", ChurnFleet},
	}
}

// ByName finds an experiment runner.
func ByName(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// designConfig builds the allocator config of a design point named in
// code (the paper's redesigns are each the baseline with one tier's
// policy changed).
func designConfig(d policy.DesignPoint) core.Config {
	cfg, err := core.ConfigForDesign(d)
	if err != nil {
		panic(err)
	}
	return cfg
}

// runProfile executes one profile on a fresh machine through the machine
// runtime, under the installed Instrumentation, and folds what the run
// measured into r. It returns the run's result and runtime. Calls on one
// report must not overlap: their order is the order of r's fold.
func runProfile(r *Report, p workload.Profile, cfg core.Config, seed uint64, duration int64) (workload.Result, *machine.Runtime) {
	if instr.Chaos {
		cfg.Faults = mem.FaultPlan{Seed: seed ^ 0x5eed, MmapFailureRate: 0.005}
	}
	if instr.Audit {
		cfg.Check = check.DefaultConfig()
	}
	if instr.Telemetry.Enabled {
		cfg.Telemetry = instr.Telemetry
	}
	if instr.HeapProfile.Enabled {
		cfg.HeapProfile = instr.HeapProfile
		cfg.HeapProfile.Seed ^= seed
	}
	opts := workload.DefaultOptions(seed)
	opts.Duration = duration
	if instr.Audit {
		opts.AuditEveryNs = duration / 8
	}
	m := fleet.Machine{Platform: topology.Default(), App: p, Seed: seed}
	rm, rt, _, err := fleet.RunMachineLifecycle(m, cfg, opts, fleet.LifecycleOptions{})
	if err != nil {
		panic(err)
	}
	run := Measures{Telemetry: rm.Telemetry, HeapProfiles: rm.HeapProfiles}
	if len(rm.Result.Violations) > 0 {
		run.AuditTrips = 1
	}
	r.add(run)
	return rm.Result, rt
}

// benchMemoryDelta runs a dedicated-server benchmark profile under control
// and experiment configs and returns the average-heap delta percentage.
func benchMemoryDelta(p workload.Profile, control, experiment core.Config, seed uint64, duration int64) float64 {
	m := fleet.Machine{ID: 0, Platform: topology.Default(), App: p, Seed: seed}
	c := fleet.RunMachine(m, control, duration)
	e := fleet.RunMachine(m, experiment, duration)
	if c.AvgHeapBytes == 0 {
		return 0
	}
	return (float64(e.AvgHeapBytes) - float64(c.AvgHeapBytes)) / float64(c.AvgHeapBytes) * 100
}

// sortedAppRows orders fleet rows by the paper's app order.
var appOrder = map[string]int{
	"fleet": 0, "spanner": 1, "monarch": 2, "bigtable": 3, "f1-query": 4, "disk": 5,
	"redis": 6, "data-pipeline": 7, "image-processing": 8, "tensorflow": 9,
}

func sortRows(rows []fleet.Row) {
	sort.Slice(rows, func(i, j int) bool {
		oi, oki := appOrder[rows[i].App]
		oj, okj := appOrder[rows[j].App]
		if oki && okj {
			return oi < oj
		}
		return rows[i].App < rows[j].App
	})
}
