package core_test

// Regression tests for the design-point encoding of BaselineConfig /
// OptimizedConfig and the paper's four feature shorthands: each feature
// must select exactly one registered policy, and the design-built
// configs must equal the baseline with that one tier changed.

import (
	"reflect"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
)

// featureTiers maps each of the paper's four redesigns (a Parse
// shorthand) to the tier it changes.
var featureTiers = []struct{ name, tier string }{
	{"heterogeneous-percpu-cache", policy.TierPerCPU},
	{"nuca-transfer-cache", policy.TierTC},
	{"span-prioritization", policy.TierCFL},
	{"lifetime-aware-filler", policy.TierFiller},
}

// mustDesign parses a design string known to be valid.
func mustDesign(s string) policy.DesignPoint {
	d, err := policy.Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// mustConfig builds the config of a design string known to be valid.
func mustConfig(s string) core.Config {
	cfg, err := core.ConfigForDesign(mustDesign(s))
	if err != nil {
		panic(err)
	}
	return cfg
}

// changedTiers maps each tier whose policy in d differs from the
// baseline to d's policy name.
func changedTiers(d policy.DesignPoint) map[string]string {
	base := strings.Split(policy.Baseline().String(), ",")
	out := map[string]string{}
	for i, term := range strings.Split(d.String(), ",") {
		if term != base[i] {
			tier, name, _ := strings.Cut(term, "=")
			out[tier] = name
		}
	}
	return out
}

func TestFeatureMapsToExactlyOneRegistryPolicy(t *testing.T) {
	seen := map[string]string{}
	for _, f := range featureTiers {
		changed := changedTiers(mustDesign(f.name))
		if len(changed) != 1 {
			t.Fatalf("%s: changes tiers %v, want exactly one", f.name, changed)
		}
		name, ok := changed[f.tier]
		if !ok {
			t.Fatalf("%s: changes %v, want tier %s", f.name, changed, f.tier)
		}
		if _, registered := policy.Lookup(f.tier, name); !registered {
			t.Fatalf("%s: maps to unregistered policy %s=%s", f.name, f.tier, name)
		}
		key := f.tier + "=" + name
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s and %s map to the same policy %s", prev, f.name, key)
		}
		seen[key] = f.name
	}
	if _, err := policy.Parse("unknown-feature"); err == nil {
		t.Fatal("unknown feature name parses")
	}
}

func TestWithFeatureMatchesDesignPoint(t *testing.T) {
	// Enabling one feature on the baseline swaps in exactly that tier's
	// optimized configuration and leaves every other field alone.
	opt := core.OptimizedConfig()
	for _, f := range featureTiers {
		want := core.BaselineConfig()
		switch f.tier {
		case policy.TierPerCPU:
			want.PerCPU = opt.PerCPU
		case policy.TierTC:
			want.Transfer = opt.Transfer
		case policy.TierCFL:
			want.CFL = opt.CFL
		case policy.TierFiller:
			want.PageHeap = opt.PageHeap
		}
		if got := mustConfig(f.name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ConfigForDesign != baseline with the %s tier optimized:\n%+v\nvs\n%+v",
				f.name, f.tier, got, want)
		}
	}
}

func TestOptimizedConfigIsAllFeatures(t *testing.T) {
	stacked := policy.Baseline()
	for _, f := range featureTiers {
		var err error
		if stacked, err = stacked.WithPolicy(f.tier, changedTiers(mustDesign(f.name))[f.tier]); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := core.ConfigForDesign(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, core.OptimizedConfig()) {
		t.Fatal("stacking all four features does not reproduce OptimizedConfig")
	}
}

func TestConfigForDesignRejectsUnknown(t *testing.T) {
	if _, err := core.ConfigForDesign(policy.DesignPoint{PerCPU: percpu.Policy(99)}); err == nil {
		t.Fatal("want error for out-of-range policy value")
	}
}
