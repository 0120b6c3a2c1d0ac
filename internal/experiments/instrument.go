package experiments

import (
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/telemetry"
)

// Instrumentation selects the optional instrumentation of every
// profile-driven experiment run. It backs the cmd/experiments -audit,
// -chaos, -telemetry and -heapprof flags: Audit turns on the full shadow
// heap plus periodic invariant audits; Chaos installs a small
// deterministic mmap failure rate so every experiment also exercises the
// allocator's degradation paths; Telemetry instruments each run's
// metrics registry; HeapProfile attaches the sampled heap profiler, its
// seed mixed with each run's.
type Instrumentation struct {
	Audit, Chaos bool
	Telemetry    telemetry.Config
	HeapProfile  heapprof.Config
}

// instr is read by runners on pool goroutines; Instrument is called
// before any of them start.
var instr Instrumentation

// Instrument installs the instrumentation of every subsequent
// profile-driven experiment run. What the runs measure comes back on the
// Report that ran them; Fold merges a batch of reports.
func Instrument(in Instrumentation) { instr = in }

// Measures is what a report's instrumented runs measured, folded in the
// order the runner made its runs.
type Measures struct {
	// Telemetry merges the runs' metrics registries (nil unless
	// telemetry is instrumented).
	Telemetry *telemetry.Registry
	// HeapProfiles merges the runs' heap profile views (nil unless heap
	// profiling is instrumented).
	HeapProfiles []heapprof.Profile
	// AuditTrips counts the runs that ended with audit violations.
	AuditTrips int
}

// add folds o into m. Profile merges sum float sample weights, so the
// order of add calls fixes the bytes of the merged views.
func (m *Measures) add(o Measures) {
	if o.Telemetry != nil {
		if m.Telemetry == nil {
			m.Telemetry = telemetry.NewRegistry()
		}
		m.Telemetry.Merge(o.Telemetry)
	}
	m.HeapProfiles = heapprof.Merge(m.HeapProfiles, o.HeapProfiles)
	m.AuditTrips += o.AuditTrips
}

// Fold merges the measures of reports in argument order, the order
// RunMany returns them in, so the aggregate is byte-identical at any
// worker count. With telemetry instrumented the registry is non-nil even
// when no report made a profile-driven run.
func Fold(reports []Report) Measures {
	var m Measures
	if instr.Telemetry.Enabled {
		m.Telemetry = telemetry.NewRegistry()
	}
	for _, r := range reports {
		m.add(r.Measures)
	}
	return m
}
