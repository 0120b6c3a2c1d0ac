package experiments

import (
	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// SelfTest is the sanitizer corruption self-test, runnable as the
// "selftest" experiment: it injects one instance of each violation class
// into a live allocator and asserts the shadow heap or the structural
// auditors detect it. Report.Failed is set if any class goes undetected.
func SelfTest(seed uint64, scale Scale) Report {
	rep := Report{
		ID:    "selftest",
		Title: "heap-integrity sanitizer corruption self-test",
		PaperClaim: "the fleet runs sampled heap sanitizers (GWP-ASan) in production; " +
			"the simulation's shadow heap and auditors must detect every injected violation class",
	}
	cfg := core.OptimizedConfig()
	cfg.Check = check.DefaultConfig()
	alloc := core.New(cfg, topology.New(topology.Default()))

	// Warm up a spread of live small objects so every tier has state to
	// audit. Sizes cycle through five classes including the 16 B class the
	// accounting probe corrupts.
	warm := int(4096 * float64(scale))
	if warm < 512 {
		warm = 512
	}
	type obj struct {
		addr uint64
		size int
	}
	var live []obj
	for i := 0; i < warm; i++ {
		size := 16 << (uint(i) % 5)
		if addr, _, err := alloc.TryMalloc(size, i%4); err == nil {
			live = append(live, obj{addr, size})
		}
	}

	if vs := alloc.CheckInvariants(); len(vs) != 0 {
		rep.Failed = true
		rep.addf("pre-corruption audit: %d violations, want 0 (first: %s)", len(vs), vs[0])
	} else {
		rep.addf("pre-corruption audit: clean (%d live objects under full shadow)", len(live))
	}

	// probe injects one violation and asserts the audit reports at least
	// one new violation of the expected kind. Shadow findings accumulate
	// inside the allocator, so detection is measured as a before/after
	// delta per kind.
	probe := func(name string, kind check.Kind, inject func() bool) {
		before := check.CountByKind(alloc.CheckInvariants())[kind]
		ok := inject()
		after := check.CountByKind(alloc.CheckInvariants())[kind]
		switch {
		case !ok:
			rep.Failed = true
			rep.addf("%-26s SETUP FAILED", name)
		case after > before:
			rep.addf("%-26s detected (%s)", name, kind)
		default:
			rep.Failed = true
			rep.addf("%-26s MISSED (%s count %d -> %d)", name, kind, before, after)
		}
	}

	probe("double free", check.KindDoubleFree, func() bool {
		o := live[0]
		live = live[1:]
		if _, err := alloc.TryFree(o.addr, o.size, 0); err != nil {
			return false
		}
		_, err := alloc.TryFree(o.addr, o.size, 0)
		return err != nil // the invalid free must also be rejected
	})

	probe("unknown-pointer free", check.KindUnknownFree, func() bool {
		_, err := alloc.TryFree(1<<46, 64, 0) // far beyond any simulated mapping
		return err != nil
	})

	tab := sizeclass.NewTable()
	c16, _ := tab.ClassFor(16)

	probe("span-accounting drift", check.KindAccounting, func() bool {
		alloc.CorruptSpanAccountingForTest(c16.Index, 3)
		return true
	})

	probe("cache byte-bound overflow", check.KindStructure, func() bool {
		// The legacy transfer cache caps at 1024 objects per class; 1100
		// synthetic entries puts it over the bound.
		addrs := make([]uint64, 1100)
		for i := range addrs {
			addrs[i] = uint64(1<<45) + uint64(i*16)
		}
		alloc.OverstuffTransferForTest(c16.Index, addrs)
		return true
	})

	probe("per-CPU counter drift", check.KindAccounting, func() bool {
		alloc.CorruptFrontUsedForTest(0, 128)
		return true
	})

	if !rep.Failed {
		rep.addf("all injected violation classes detected; sanitizer never panicked")
	}
	return rep
}

// ChaosFleet is the "chaos" experiment: a fleet A/B run where every
// enrolled machine's simulated OS injects deterministic mmap failures and
// enforces a mapped-byte budget. The run must complete with graceful
// degradation — dropped operations and emergency releases, never a panic
// — and the periodic invariant audits must stay clean.
func ChaosFleet(seed uint64, scale Scale) Report {
	rep := Report{
		ID:    "chaos",
		Title: "fleet A/B under deterministic fault injection",
		PaperClaim: "warehouse fleets see memory exhaustion daily; TCMalloc degrades " +
			"gracefully (returns memory, fails the allocation) rather than crashing the machine",
	}
	f := fleet.New(64, seed)
	opts := fleet.DefaultABOptions()
	opts.MinMachines = 8
	opts.DurationNs = scale.duration(120 * workload.Millisecond)
	opts.AuditEveryNs = opts.DurationNs / 4
	opts.Chaos = mem.FaultPlan{
		Seed:              seed ^ 0xc4a05c4a,
		MmapFailureRate:   0.03,
		MappedBytesBudget: 512 << 20,
	}
	res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	ch := res.Chaos

	rep.addf("injected: %d mmap failures, %d budget rejections (512 MiB cap per machine)",
		ch.InjectedFailures, ch.BudgetFailures)
	rep.addf("absorbed: %d allocator OOMs, %d ops dropped, %d pressure releases (%d MiB returned)",
		ch.OOMErrors, ch.AllocFailures, ch.PressureEvents, ch.PressureReleasedBytes>>20)
	rep.addf("audits: %d runs, %d violations", ch.Audits, ch.Violations)
	rep.addf("fleet delta still measured: %s", res.Fleet.String())

	if ch.InjectedFailures+ch.BudgetFailures == 0 {
		rep.Failed = true
		rep.addf("FAIL: the fault plan never fired")
	}
	if ch.Audits == 0 {
		rep.Failed = true
		rep.addf("FAIL: no invariant audits ran")
	}
	if ch.Violations > 0 {
		rep.Failed = true
		rep.addf("FAIL: audits reported violations under fault injection")
	}
	return rep
}
