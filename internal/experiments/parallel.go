package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"wsmalloc/internal/sched"
)

// workerBound is the intra-experiment fan-out bound, the cmd/experiments
// -j flag. Stored atomically because runners themselves may execute on
// pool goroutines (RunMany) while reading it. 0 selects GOMAXPROCS.
var workerBound atomic.Int64

// SetWorkers bounds the parallelism of every subsequent experiment run:
// fleet A/B machine fan-out, per-profile benchmark sweeps, and ablation
// sweeps. n <= 0 selects GOMAXPROCS; 1 restores the fully sequential
// legacy path. Results are identical either way — worker count is a
// wall-clock knob, never a results knob.
func SetWorkers(n int) { workerBound.Store(int64(n)) }

// Workers returns the resolved intra-experiment worker bound.
func Workers() int { return sched.DefaultWorkers(int(workerBound.Load())) }

// fanOut runs fn(0..n-1) on the worker pool with results index-addressed
// by the caller, re-panicking any captured worker panic so a runner's
// failure semantics match the sequential loops it replaced.
func fanOut(n int, fn func(i int) error) {
	if err := sched.Map(context.Background(), n, Workers(), fn); err != nil {
		panic(err)
	}
}

// RunMany executes the named experiments, fanning out over the worker
// pool, and returns their reports in argument order — independent of
// completion order, per the sched determinism contract — ready for
// Fold. Unknown names fail before anything runs.
func RunMany(names []string, seed uint64, scale Scale) ([]Report, error) {
	runners := make([]Runner, len(names))
	for i, name := range names {
		r, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", name)
		}
		runners[i] = r
	}
	reports := make([]Report, len(runners))
	err := sched.Map(context.Background(), len(runners), Workers(), func(i int) error {
		reports[i] = runners[i].Run(seed, scale)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
