package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		counts := make([]int32, n)
		err := Map(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapSequentialPathRunsInIndexOrder(t *testing.T) {
	var order []int
	err := Map(context.Background(), 20, 1, func(i int) error {
		order = append(order, i) // no lock: workers=1 must be inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential path out of order: %v", order)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	err := Map(context.Background(), 24, workers, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak, workers)
	}
}

func TestMapCapturesPanicWithIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Map(context.Background(), 10, workers, func(i int) error {
			if i == 6 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want PanicError", workers, err)
		}
		if pe.Index != 6 || fmt.Sprint(pe.Value) != "boom" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if !strings.Contains(err.Error(), "task 6") {
			t.Fatalf("workers=%d: error %q missing task index", workers, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Make two tasks fail with the higher index finishing first; the
	// lower-index error must win regardless of completion order.
	errLo, errHi := errors.New("lo"), errors.New("hi")
	err := Map(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
			return errLo
		}
		return errHi
	})
	if err != errLo {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	var started int32
	sentinel := errors.New("stop")
	_ = Map(context.Background(), 1000, 2, func(i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if n := atomic.LoadInt32(&started); n == 1000 {
		t.Fatal("every task ran despite an early error")
	}
}

func TestMapHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	err := Map(ctx, 1000, 2, func(i int) error {
		if atomic.AddInt32(&started, 1) == 1 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&started); n == 1000 {
		t.Fatal("every task ran despite cancellation")
	}
}

func TestMapEmptyAndDefaultWorkers(t *testing.T) {
	if err := Map(context.Background(), 0, 4, func(int) error { return errors.New("no") }); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
	if got := DefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := DefaultWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(-3) = %d, want GOMAXPROCS", got)
	}
	if want := min(5, runtime.GOMAXPROCS(0)); DefaultWorkers(5) != want {
		t.Fatalf("DefaultWorkers(5) = %d, want %d", DefaultWorkers(5), want)
	}
}

// TestDefaultWorkersClampsToGOMAXPROCS pins GOMAXPROCS to 1 and checks
// that an oversubscribed -j request collapses to the sequential path:
// extra workers on a single CPU only add scheduler contention.
func TestDefaultWorkersClampsToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := DefaultWorkers(4); got != 1 {
		t.Fatalf("DefaultWorkers(4) with GOMAXPROCS=1 = %d, want 1", got)
	}
	if got := DefaultWorkers(1); got != 1 {
		t.Fatalf("DefaultWorkers(1) = %d, want 1", got)
	}
}

// TestOversubscribedMapRunsSequentially is the deterministic half of
// the clamp check: with GOMAXPROCS pinned to 1, Map at -j 4 must take
// the sequential path — one task in flight at a time, in index order —
// even when every task yields the processor.
func TestOversubscribedMapRunsSequentially(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var inFlight, maxInFlight atomic.Int32
	var order []int
	err := Map(context.Background(), 32, 4, func(i int) error {
		n := inFlight.Add(1)
		if n > maxInFlight.Load() {
			maxInFlight.Store(n)
		}
		order = append(order, i) // sequential path: no other task runs concurrently
		runtime.Gosched()        // a pool worker would start the next task here
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("-j 4 on GOMAXPROCS=1 had %d tasks in flight, want 1", got)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task order %v, want index order", order)
		}
	}
	if len(order) != 32 {
		t.Fatalf("ran %d tasks, want 32", len(order))
	}
}

// TestOversubscribedJMatchesSequentialThroughput runs the same CPU-bound
// task set at -j 1 and -j 4 with GOMAXPROCS pinned to 1 and requires the
// oversubscribed run to stay within 5% of the sequential one — the
// regression the DefaultWorkers clamp fixes (without it, -j 4 on one CPU
// was measurably slower than -j 1). The two run in interleaved pairs,
// alternating which goes first, and the bound applies to the median
// per-pair ratio: load that comes and goes on a shared box lands on both
// sides of a pair instead of on one side's whole block. Each side spins
// for about 0.1 s, long enough that a scheduler hiccup under a loaded
// test suite is a small fraction of it.
func TestOversubscribedJMatchesSequentialThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	const tasks = 64
	work := func(i int) error {
		// Deterministic CPU-bound spin, no allocation.
		x := uint64(i + 1)
		for k := 0; k < 2_000_000; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if x == 0 {
			return errors.New("unreachable")
		}
		return nil
	}
	measure := func(j int) time.Duration {
		start := time.Now()
		if err := Map(context.Background(), tasks, j, work); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const pairs = 7
	ratios := make([]float64, pairs)
	for p := range ratios {
		var seq, over time.Duration
		if p%2 == 0 {
			seq, over = measure(1), measure(4)
		} else {
			over, seq = measure(4), measure(1)
		}
		ratios[p] = float64(over) / float64(seq)
	}
	sort.Float64s(ratios)
	if median := ratios[pairs/2]; median > 1.05 {
		t.Fatalf("-j 4 on GOMAXPROCS=1 took a median %.3fx of -j 1's time over %d interleaved pairs, "+
			"over the 5%% bound (sorted ratios %.3f)", median, pairs, ratios)
	}
}
