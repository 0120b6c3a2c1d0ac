package policy_test

import (
	"testing"

	"wsmalloc/internal/policy"
)

// FuzzDesignPointParse asserts the two Parse contracts on arbitrary
// input: it never panics, and any string it accepts round-trips through
// the canonical String form to the identical design point.
func FuzzDesignPointParse(f *testing.F) {
	f.Add("baseline")
	f.Add("optimized")
	f.Add(policy.Optimized().String())
	f.Add("tc=nuca")
	f.Add("percpu=ewma,tc=pressure,cfl=bestfit,filler=heapprof")
	f.Add("percpu=hetero,percpu=static")
	f.Add(" tc = nuca ,")
	f.Add("====,,=")
	f.Add("nuca-transfer-cache")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := policy.Parse(s)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted invalid point %+v: %v", s, d, verr)
		}
		again, err := policy.Parse(d.String())
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q rejected: %v", d.String(), s, err)
		}
		if again != d {
			t.Fatalf("round trip of %q: %+v != %+v", s, again, d)
		}
	})
}
