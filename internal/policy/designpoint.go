package policy

import (
	"encoding/json"
	"fmt"
	"strings"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/transfercache"
)

// DesignPoint names one policy per tier — a single point in the
// allocator design space. The zero value is the baseline. Its canonical
// serialization is "percpu=NAME,tc=NAME,cfl=NAME,filler=NAME"; Parse
// accepts any subset of keys (missing tiers default to the baseline
// policy) plus the named shorthands.
type DesignPoint struct {
	PerCPU percpu.Policy
	TC     transfercache.Policy
	CFL    centralfreelist.Policy
	Filler pageheap.Policy
}

// Baseline is the legacy allocator: every tier on its pre-redesign
// policy.
func Baseline() DesignPoint { return DesignPoint{} }

// Optimized is the paper's full redesign: all four §4 features on.
func Optimized() DesignPoint {
	return DesignPoint{
		PerCPU: percpu.Hetero,
		TC:     transfercache.NUCA,
		CFL:    centralfreelist.FullestFirst,
		Filler: pageheap.FillerCapacity,
	}
}

// shorthands are the names Parse accepts in place of tier=policy pairs:
// the two endpoints, and the paper's four §4 redesigns, each the
// baseline with one tier on its paper policy.
var shorthands = map[string]DesignPoint{
	"baseline":                   Baseline(),
	"optimized":                  Optimized(),
	"heterogeneous-percpu-cache": {PerCPU: percpu.Hetero},
	"nuca-transfer-cache":        {TC: transfercache.NUCA},
	"span-prioritization":        {CFL: centralfreelist.FullestFirst},
	"lifetime-aware-filler":      {Filler: pageheap.FillerCapacity},
}

// IsShorthand reports whether name is one of Parse's named design
// points.
func IsShorthand(name string) bool {
	_, ok := shorthands[name]
	return ok
}

// get returns the enum value of the tier at canonical position i.
func (d DesignPoint) get(i int) uint8 {
	switch i {
	case 0:
		return uint8(d.PerCPU)
	case 1:
		return uint8(d.TC)
	case 2:
		return uint8(d.CFL)
	default:
		return uint8(d.Filler)
	}
}

// WithPolicy returns a copy with one tier's policy replaced. The name
// is validated against the registry.
func (d DesignPoint) WithPolicy(tier, name string) (DesignPoint, error) {
	i, v, err := resolve(tier, name)
	if err != nil {
		return d, err
	}
	switch i {
	case 0:
		d.PerCPU = percpu.Policy(v)
	case 1:
		d.TC = transfercache.Policy(v)
	case 2:
		d.CFL = centralfreelist.Policy(v)
	default:
		d.Filler = pageheap.Policy(v)
	}
	return d, nil
}

// String renders the canonical full form, all four tiers in canonical
// order: "percpu=static,tc=central,cfl=legacy,filler=none". The point
// must be valid.
func (d DesignPoint) String() string {
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = t.key + "=" + t.policies[d.get(i)].name
	}
	return strings.Join(parts, ",")
}

// Validate checks every tier holds one of its enum's values.
func (d DesignPoint) Validate() error {
	for i, t := range tiers {
		if v := int(d.get(i)); v >= len(t.policies) {
			return fmt.Errorf("policy: invalid %s policy %d (registered: %d policies)",
				t.key, v, len(t.policies))
		}
	}
	return nil
}

// Parse reads a design-point string: a named shorthand ("baseline",
// "optimized", or one of the paper's four redesigns such as
// "nuca-transfer-cache"), or a comma-separated list of tier=policy pairs
// where omitted tiers keep their baseline policy. Every name is
// validated against the registry; errors list what is registered.
func Parse(s string) (DesignPoint, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return DesignPoint{}, fmt.Errorf("policy: empty design point (want e.g. %q)", Optimized().String())
	}
	if d, ok := shorthands[trimmed]; ok {
		return d, nil
	}
	d := Baseline()
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		tier, name, ok := strings.Cut(part, "=")
		if !ok {
			return DesignPoint{}, fmt.Errorf("policy: malformed design term %q: want tier=policy with tier one of %s, or the shorthands \"baseline\"/\"optimized\" (e.g. %q)",
				part, strings.Join(Tiers(), ", "), Optimized().String())
		}
		if seen[tier] {
			return DesignPoint{}, fmt.Errorf("policy: tier %q set twice", tier)
		}
		seen[tier] = true
		var err error
		if d, err = d.WithPolicy(tier, name); err != nil {
			return DesignPoint{}, err
		}
	}
	return d, nil
}

// MarshalJSON serializes the canonical string form.
func (d DesignPoint) MarshalJSON() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d.String())
}

// UnmarshalJSON parses the string form (or shorthands) via Parse.
func (d *DesignPoint) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	p, err := Parse(s)
	if err != nil {
		return err
	}
	*d = p
	return nil
}
