package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsmalloc/internal/policy"
)

// TestDefaultGridCoversRegistry pins the sweep's registry coverage:
// every registered policy of every tier appears in at least one default
// grid point, so a newly registered policy that is never swept fails
// here by name.
func TestDefaultGridCoversRegistry(t *testing.T) {
	grid := DefaultDesignGrid()
	if len(grid) < 12 {
		t.Fatalf("default grid has %d points, want >= 12", len(grid))
	}
	covered := map[string]bool{}
	for _, d := range grid {
		for _, term := range strings.Split(d.String(), ",") {
			covered[term] = true
		}
	}
	for _, tier := range policy.Tiers() {
		for _, name := range policy.Names(tier) {
			if !covered[tier+"="+name] {
				t.Errorf("registered policy %s=%s is in no default grid point", tier, name)
			}
		}
	}
}

// TestDesignSpaceDeterministicAcrossWorkers runs a 3-point smoke sweep
// at -j 1 and -j 4 and requires byte-identical leaderboard exports and
// report lines.
func TestDesignSpaceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	points := []policy.DesignPoint{policy.Baseline(), policy.Optimized()}
	extra, err := policy.Parse("percpu=ewma,tc=pressure,cfl=bestfit,filler=heapprof")
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, extra)

	dir := t.TempDir()
	defer func() {
		SetWorkers(0)
		SetDesignSpace(nil, "")
	}()
	run := func(workers int, tag string) (lines, files string) {
		base := filepath.Join(dir, tag)
		SetWorkers(workers)
		SetDesignSpace(points, base)
		rep := DesignSpace(0x5eed, ScaleSmoke)
		if rep.Failed {
			t.Fatalf("%s: sweep failed: %v", tag, rep.Lines)
		}
		var blobs []string
		for _, ext := range []string{".json", ".csv"} {
			b, err := os.ReadFile(base + ext)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, string(b))
		}
		// The final line names the (worker-dependent) output base; drop it.
		return strings.Join(rep.Lines[:len(rep.Lines)-1], "\n"), strings.Join(blobs, "\x00")
	}
	lines1, files1 := run(1, "j1")
	lines4, files4 := run(4, "j4")
	if lines1 != lines4 {
		t.Errorf("leaderboard lines differ between -j 1 and -j 4:\n%s\nvs\n%s", lines1, lines4)
	}
	if files1 != files4 {
		t.Error("exported JSON/CSV differ between -j 1 and -j 4")
	}
}
