package policy_test

import (
	"encoding/json"
	"strings"
	"testing"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/core"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/transfercache"
)

func TestDesignPointRoundTrip(t *testing.T) {
	points := []policy.DesignPoint{policy.Baseline(), policy.Optimized()}
	// Every single-policy deviation from baseline.
	for _, tier := range policy.Tiers() {
		for _, name := range policy.Names(tier) {
			d, err := policy.Baseline().WithPolicy(tier, name)
			if err != nil {
				t.Fatalf("WithPolicy(%s, %s): %v", tier, name, err)
			}
			points = append(points, d)
		}
	}
	for _, d := range points {
		got, err := policy.Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("round trip: Parse(%q) = %+v, want %+v", d.String(), got, d)
		}
	}
}

func TestParseShorthandsAndDefaults(t *testing.T) {
	if d, err := policy.Parse("baseline"); err != nil || d != policy.Baseline() {
		t.Fatalf("Parse(baseline) = %+v, %v", d, err)
	}
	if d, err := policy.Parse("optimized"); err != nil || d != policy.Optimized() {
		t.Fatalf("Parse(optimized) = %+v, %v", d, err)
	}
	// Omitted tiers default to baseline policies.
	d, err := policy.Parse("tc=nuca")
	if err != nil {
		t.Fatal(err)
	}
	want := policy.Baseline()
	want.TC = transfercache.NUCA
	if d != want {
		t.Fatalf("Parse(tc=nuca) = %+v, want %+v", d, want)
	}
}

// TestParseFeatureShorthands pins each of the paper's four redesign
// names to the design point it has always denoted: the baseline with
// that one tier on its paper policy.
func TestParseFeatureShorthands(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"heterogeneous-percpu-cache", "percpu=hetero,tc=central,cfl=legacy,filler=none"},
		{"nuca-transfer-cache", "percpu=static,tc=nuca,cfl=legacy,filler=none"},
		{"span-prioritization", "percpu=static,tc=central,cfl=prio8,filler=none"},
		{"lifetime-aware-filler", "percpu=static,tc=central,cfl=legacy,filler=capacity"},
	} {
		d, err := policy.Parse(c.name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.name, err)
		}
		if got := d.String(); got != c.want {
			t.Fatalf("Parse(%q) = %s, want %s", c.name, got, c.want)
		}
		if !policy.IsShorthand(c.name) {
			t.Fatalf("IsShorthand(%q) = false", c.name)
		}
	}
	if policy.IsShorthand("tc=nuca") {
		t.Fatal("a tier=policy list is not a shorthand")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"", "empty design point"},
		{"percpu", "malformed"},
		{"bogus=1", "unknown tier"},
		{"tc=nuca,tc=central", "set twice"},
		// An unknown policy name must list what IS registered.
		{"percpu=warp", "registered: ewma, hetero, static"},
		{"filler=x", "registered: capacity, heapprof, none"},
	}
	for _, c := range cases {
		_, err := policy.Parse(c.in)
		if err == nil {
			t.Fatalf("Parse(%q): want error containing %q, got nil", c.in, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Parse(%q): error %q does not contain %q", c.in, err, c.want)
		}
	}
}

func TestDesignPointJSON(t *testing.T) {
	d, err := policy.Parse("percpu=ewma,cfl=bestfit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + d.String() + `"`; string(b) != want {
		t.Fatalf("MarshalJSON = %s, want %s", b, want)
	}
	var got policy.DesignPoint
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("JSON round trip: %+v != %+v", got, d)
	}
	// Invalid points refuse to marshal rather than emitting garbage.
	if _, err := json.Marshal(policy.DesignPoint{PerCPU: percpu.Policy(99)}); err == nil {
		t.Fatal("MarshalJSON of invalid point: want error")
	}
}

func TestTiersApplyOrderFillerLast(t *testing.T) {
	// The filler decision lives in one field, so a heapprof filler next
	// to a prioritized CFL survives regardless of the design string's key
	// order, all the way into the built config.
	for _, in := range []string{"cfl=prio8,filler=heapprof", "filler=heapprof,cfl=prio8"} {
		d, err := policy.Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := core.ConfigForDesign(d)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.PageHeap.Filler != pageheap.FillerHeapProf {
			t.Fatalf("%q: heapprof filler lost (got %d)", in, cfg.PageHeap.Filler)
		}
		if cfg.CFL.Policy != centralfreelist.FullestFirst {
			t.Fatalf("%q: cfl policy %d, want prio8", in, cfg.CFL.Policy)
		}
	}
}

func TestRegistryShape(t *testing.T) {
	// Four tiers, each with its legacy, paper, and new policy — the
	// floor the design-space sweep relies on.
	wantMin := map[string]int{"percpu": 3, "tc": 3, "cfl": 3, "filler": 3}
	for _, tier := range policy.Tiers() {
		names := policy.Names(tier)
		if len(names) < wantMin[tier] {
			t.Fatalf("tier %s has %d policies (%v), want >= %d",
				tier, len(names), names, wantMin[tier])
		}
		for _, name := range names {
			p, ok := policy.Lookup(tier, name)
			if !ok || p.Tier != tier || p.Name != name || p.Desc == "" {
				t.Fatalf("tier %s policy %s: incomplete registration", tier, name)
			}
		}
	}
}
