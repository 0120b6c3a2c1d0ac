// Package policy names the simulator's allocator design space. Every
// per-tier decision policy is a value of one closed enum in its tier —
// front-end capacity resizing (percpu.Policy), middle-tier routing
// (transfercache.Policy), span selection (centralfreelist.Policy), and
// the hugepage filler's lifetime policy (pageheap.Policy) — and this
// package gives each value its registry name and description. A
// serializable DesignPoint ("percpu=hetero,tc=nuca,cfl=prio8,filler=capacity")
// selects one policy per tier; core.ConfigForDesign builds the matching
// core.Config. The paper's 2^4 feature grid is the cross-product of the
// first two policies of each tier.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/transfercache"
)

// Tier keys, in canonical order.
const (
	TierPerCPU = "percpu"
	TierTC     = "tc"
	TierCFL    = "cfl"
	TierFiller = "filler"
)

// Policy describes one registered per-tier policy for listings.
type Policy struct {
	// Tier is one of the Tier* keys.
	Tier string
	// Name is the registry key within the tier (e.g. "hetero").
	Name string
	// Desc is a one-line description for listings.
	Desc string
}

// entry is one row of a tier's policy table.
type entry struct{ name, desc string }

// tiers holds, in canonical order, each tier's policy table indexed by
// that tier's enum value (baseline first).
var tiers = [...]struct {
	key      string
	policies []entry
}{
	{TierPerCPU, []entry{
		percpu.Static: {"static", "fixed 3 MiB per-vCPU caches, no resizing (legacy)"},
		percpu.Hetero: {"hetero", "top-K miss-window capacity stealing at half the budget (paper §4.1)"},
		percpu.EWMA:   {"ewma", "capacity stealing ranked by EWMA-smoothed misses (new)"},
	}},
	{TierTC, []entry{
		transfercache.Central:  {"central", "one shared transfer cache (legacy)"},
		transfercache.NUCA:     {"nuca", "per-LLC-domain caches over the shared fallback (paper §4.2)"},
		transfercache.Pressure: {"pressure", "NUCA with overflow frees biased to the least-full sibling domain (new)"},
	}},
	{TierCFL, []entry{
		centralfreelist.Legacy:       {"legacy", "singleton span list, front-of-list allocation (legacy)"},
		centralfreelist.FullestFirst: {"prio8", "L=8 occupancy lists, fullest-first allocation (paper §4.3)"},
		centralfreelist.BestFit:      {"bestfit", "occupancy lists with lowest-address span within the fullest bucket (new)"},
	}},
	{TierFiller, []entry{
		pageheap.FillerNone:     {"none", "lifetime-agnostic filler (legacy)"},
		pageheap.FillerCapacity: {"capacity", "lifetime-aware filler, capacity-threshold C=16 classifier (paper §4.4)"},
		pageheap.FillerHeapProf: {"heapprof", "lifetime-aware filler steered by sampled heap-profile lifetime decades (new)"},
	}},
}

// tierIndex returns the position of a tier key in canonical order, or
// -1.
func tierIndex(tier string) int {
	for i, t := range tiers {
		if t.key == tier {
			return i
		}
	}
	return -1
}

// Tiers returns the tier keys in canonical order.
func Tiers() []string {
	out := make([]string, len(tiers))
	for i, t := range tiers {
		out[i] = t.key
	}
	return out
}

// Names returns the policy names of a tier in enum order (baseline
// first).
func Names(tier string) []string {
	i := tierIndex(tier)
	if i < 0 {
		return nil
	}
	out := make([]string, len(tiers[i].policies))
	for v, e := range tiers[i].policies {
		out[v] = e.name
	}
	return out
}

// Lookup finds a registered policy.
func Lookup(tier, name string) (Policy, bool) {
	i, v, err := resolve(tier, name)
	if err != nil {
		return Policy{}, false
	}
	return Policy{Tier: tier, Name: name, Desc: tiers[i].policies[v].desc}, true
}

// resolve maps a tier key and policy name to the tier's position and the
// policy's enum value. An unknown tier or name returns an error listing
// what is registered.
func resolve(tier, name string) (int, uint8, error) {
	i := tierIndex(tier)
	if i < 0 {
		return 0, 0, fmt.Errorf("policy: unknown tier %q (tiers: %s)",
			tier, strings.Join(Tiers(), ", "))
	}
	for v, e := range tiers[i].policies {
		if e.name == name {
			return i, uint8(v), nil
		}
	}
	names := Names(tier)
	sort.Strings(names)
	return 0, 0, fmt.Errorf("policy: unknown %s policy %q (registered: %s)",
		tier, name, strings.Join(names, ", "))
}
