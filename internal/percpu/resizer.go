package percpu

import (
	"sort"

	"wsmalloc/internal/telemetry"
)

// Policy is the front-end capacity policy: whether, and by which
// ranking, a periodic pass moves cache capacity between vCPUs.
type Policy uint8

const (
	// Static never resizes: every vCPU grows toward the same fixed
	// budget (legacy).
	Static Policy = iota
	// Hetero is the paper's heterogeneous policy (§4.1): the topK
	// caches with the most misses in the last window grow with capacity
	// stolen round-robin from the rest.
	Hetero
	// EWMA ranks caches by an exponentially-weighted moving average of
	// their per-window misses instead of the instantaneous window, so a
	// single bursty interval cannot flip the grow set and capacity
	// follows sustained demand.
	EWMA
)

// ewmaAlpha is the EWMA policy's smoothing factor.
const ewmaAlpha = 0.3

// resize runs one capacity-stealing pass over the populated caches: the
// topK caches with the highest positive ranking key grow with capacity
// stolen round-robin from the rest, and every miss window restarts. The
// pass conserves the summed slow-start bound (capacity moves, it is
// never created); CheckInvariants enforces this.
func (c *Caches) resize() {
	type cand struct {
		idx int
		key float64
	}
	ewma := c.cfg.Policy == EWMA
	var pop []cand
	for i, cc := range c.caches {
		if cc == nil {
			continue
		}
		key := float64(cc.missWindow)
		if ewma {
			cc.missEWMA = ewmaAlpha*float64(cc.missWindow) + (1-ewmaAlpha)*cc.missEWMA
			key = cc.missEWMA
		}
		pop = append(pop, cand{i, key})
	}
	if len(pop) >= 2 {
		ranked := append([]cand(nil), pop...)
		if ewma {
			// Ties break by vCPU index so the grow set is deterministic.
			sort.Slice(ranked, func(i, j int) bool {
				if ranked[i].key != ranked[j].key {
					return ranked[i].key > ranked[j].key
				}
				return ranked[i].idx < ranked[j].idx
			})
		} else {
			sort.Slice(ranked, func(i, j int) bool { return ranked[i].key > ranked[j].key })
		}
		k := min(topK, len(ranked))
		// Caches with no misses never grow.
		grow := map[int]bool{}
		var growList []int
		for _, p := range ranked[:k] {
			if p.key > 0 {
				grow[p.idx] = true
				growList = append(growList, p.idx)
			}
		}
		victims := make([]int, len(pop))
		for i, p := range pop {
			victims[i] = p.idx
		}
		c.stealRoundRobin(victims, grow, growList)
	}
	for _, p := range pop {
		c.caches[p.idx].missWindow = 0
	}
}

// stealRoundRobin moves up to StepBytes of capacity to each grow target,
// taken round-robin from the remaining populated caches: the slow-start
// bound relocates with the capacity so the summed bound is conserved,
// and victims evict down to their shrunken capacity immediately.
func (c *Caches) stealRoundRobin(victims []int, grow map[int]bool, growList []int) {
	for _, target := range growList {
		moved := int64(0)
		for scan := 0; scan < len(victims) && moved < c.cfg.StepBytes; scan++ {
			c.stealCursor = (c.stealCursor + 1) % len(victims)
			victim := victims[c.stealCursor]
			if grow[victim] {
				continue
			}
			vc := c.caches[victim]
			avail := vc.capacity - c.cfg.MinCapacityBytes
			if avail <= 0 {
				continue
			}
			step := c.cfg.StepBytes - moved
			if step > avail {
				step = avail
			}
			// Move the slow-start bound together with the capacity:
			// otherwise the victim regrows its loss on later misses
			// while the target keeps the stolen excess, inflating the
			// summed capacity past the configured budget.
			vc.capacity -= step
			vc.bound -= step
			c.evictToCapacity(vc, victim)
			c.caches[target].capacity += step
			c.caches[target].bound += step
			moved += step
			c.resizes++
			c.tel.Event(telemetry.EvPerCPUSteal, int64(victim), step)
		}
	}
}
