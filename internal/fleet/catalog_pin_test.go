package fleet_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wsmalloc/internal/fleet"
)

// catalogHash digests what fleet.New assigns each machine: its ID, app,
// platform and workload seed, in enrolment order.
func catalogHash(f *fleet.Fleet) string {
	h := fnv.New64a()
	for _, m := range f.Machines {
		fmt.Fprintf(h, "%d %s %s %#x\n", m.ID, m.App.Name, m.Platform.Name, m.Seed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCatalogAssignmentPinned pins the machine catalog of the tracked
// sweep (fleet.New(400, 1)) and of the daemon's default 64-machine
// catalog over seeds 1-10. fleet.New draws only Discrete picks and
// Uint64 seeds, so a change to the normal or exponential samplers must
// leave these hashes alone; a change that moves them moves the enrolled
// app mix, which alone shifts the daemon's host cost by about ±20%.
func TestCatalogAssignmentPinned(t *testing.T) {
	cases := []struct {
		machines int
		seed     uint64
		want     string
	}{
		{400, 1, "153e0074f5358026"},
		{64, 1, "723d8ff5595e1a3f"},
		{64, 2, "3e6fe1f8fe8b192d"},
		{64, 3, "7ffa5f60bcc002bf"},
		{64, 4, "0c94b9f10294f6ab"},
		{64, 5, "3ce8d0a3df796dde"},
		{64, 6, "cdc01819b623f029"},
		{64, 7, "257869e55323c34f"},
		{64, 8, "980fa66a5fc49f98"},
		{64, 9, "8c99fb8a730f1c08"},
		{64, 10, "fd25337bf5a786e2"},
	}
	for _, c := range cases {
		if got := catalogHash(fleet.New(c.machines, c.seed)); got != c.want {
			t.Errorf("fleet.New(%d, %d) catalog hash %s, want %s", c.machines, c.seed, got, c.want)
		}
	}
}
