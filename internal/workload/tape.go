package workload

import (
	"fmt"
	"slices"
)

// tapeKey names the stream a tape holds: every input the driver's draws
// depend on. The allocator is deliberately absent — the stream is
// allocator-independent as long as no malloc is refused (see Tape).
type tapeKey struct {
	Profile          string
	Seed             uint64
	Duration         int64
	TimeWarpGamma    float64
	DynamicsPeriodNs int64
}

// keyOf derives the key of the stream a driver draws (options with
// NewDriver's defaults filled in).
func keyOf(p Profile, opts Options) tapeKey {
	return tapeKey{
		Profile:          p.Name,
		Seed:             opts.Seed,
		Duration:         opts.Duration,
		TimeWarpGamma:    opts.TimeWarpGamma,
		DynamicsPeriodNs: opts.DynamicsPeriodNs,
	}
}

// expectedArrivals estimates a run's malloc count for pre-sizing a
// tape: arrivals come at the mean thread count (base plus expected
// spike boost) over MeanAllocGapNs, padded by 10% and capped at 4M
// (128 MiB of columns). Without it a fresh tape regrows, and copies,
// each column many times.
func expectedArrivals(p Profile, opts Options) int {
	threads := float64(p.Threads.Base) + p.Threads.SpikeProb*float64(p.Threads.SpikeBoost)
	n := 1.1 * float64(opts.Duration) * threads / p.MeanAllocGapNs
	if !(n > 0) {
		return 0
	}
	return int(min(n, 1<<22))
}

// column is one tape column: values appended in draw order while
// recording, read back in the same order while replaying.
type column[T int32 | int64] struct {
	v   []T
	pos int
}

func (c *column[T]) put(x T) { c.v = append(c.v, x) }

func (c *column[T]) next() T {
	i := c.pos
	if i == len(c.v) {
		panic(tapeOverrun(i))
	}
	c.pos = i + 1
	return c.v[i]
}

// tapeOverrun is the panic value of a replay that draws more values
// than its recording did.
type tapeOverrun int

func (n tapeOverrun) Error() string {
	return fmt.Sprintf("workload: replay drew past the end of a %d-value tape column", int(n))
}

func (c *column[T]) reset()    { c.v, c.pos = c.v[:0], 0 }
func (c *column[T]) rewind()   { c.pos = 0 }
func (c *column[T]) read() int { return c.pos }
func (c *column[T]) len() int  { return len(c.v) }

// namedColumn lets the bulk operations walk columns of either type.
type namedColumn struct {
	name string
	c    interface {
		reset()
		rewind()
		read() int
		len() int
	}
}

// Tape is a columnar recording of every value a Driver takes from its
// RNG, in draw order, so a second run of the same stream (the other arm
// of an A/B pair) replays it instead of sampling it again. Which values
// are drawn, and in which order, depends only on the tape's key (the
// profile, seed, duration, time warp and thread cadences) and on
// every malloc succeeding: a refused malloc skips its lifetime draw (and
// can end preload early), so a recording with refusals is not
// replayable and a replay stops at its first refusal (Stopped).
//
// A tape belongs to one uninterrupted run at a time. Its cursors are
// not part of the driver's serialized state, so drivers with a tape
// reject checkpoints, halts and restarts. The zero Tape is ready to
// record; recording again reuses the column storage.
type Tape struct {
	key tapeKey
	// threads: the initial thread count, then each update.
	threads column[int32]
	// preSize, preThread: one per preload block.
	preSize   column[int64]
	preThread column[int32]
	// gap, size, thread, life: one per arrival (the last gap, the one
	// that crosses Duration, has no malloc after it).
	gap    column[int64]
	size   column[int64]
	thread column[int32]
	life   column[int64]
	// free: the freeing thread of each object that died in-run.
	free column[int32]

	replayable bool // the recording ran to its end with no refused malloc
	stopped    bool // the last replay stopped at a refused malloc
}

// columns lists the tape's columns for the bulk operations.
func (t *Tape) columns() []namedColumn {
	return []namedColumn{
		{"threads", &t.threads}, {"preload-size", &t.preSize}, {"preload-thread", &t.preThread},
		{"gap", &t.gap}, {"size", &t.size}, {"thread", &t.thread}, {"lifetime", &t.life},
		{"free-thread", &t.free},
	}
}

// Replayable reports whether the tape holds a complete recording made
// without refused mallocs.
func (t *Tape) Replayable() bool { return t.replayable }

// Stopped reports whether the last replay ended early at a malloc its
// allocator refused. That run's Result is partial; rerun it live.
func (t *Tape) Stopped() bool { return t.stopped }

// startRecording empties the columns (keeping their storage), reserves
// room for arrivals mallocs, and keys the tape to the run about to be
// recorded.
func (t *Tape) startRecording(key tapeKey, arrivals int) {
	for _, nc := range t.columns() {
		nc.c.reset()
	}
	t.gap.v = slices.Grow(t.gap.v, arrivals)
	t.size.v = slices.Grow(t.size.v, arrivals)
	t.thread.v = slices.Grow(t.thread.v, arrivals)
	t.life.v = slices.Grow(t.life.v, arrivals)
	t.free.v = slices.Grow(t.free.v, arrivals)
	t.key, t.replayable, t.stopped = key, false, false
}

// startReplay rewinds the cursors for a run keyed key, panicking when
// the tape cannot stand in for that run's draws.
func (t *Tape) startReplay(key tapeKey) {
	if !t.replayable {
		panic(fmt.Sprintf("workload: tape for %+v is not replayable: its recording did not finish or had refused mallocs", t.key))
	}
	if key != t.key {
		panic(fmt.Sprintf("workload: replay key mismatch: tape recorded %+v, run wants %+v", t.key, key))
	}
	for _, nc := range t.columns() {
		nc.c.rewind()
	}
	t.stopped = false
}

// checkConsumed panics unless a completed replay read every column to
// its end: a replay that drew fewer values than the recording diverged
// from it without overrunning.
func (t *Tape) checkConsumed() {
	for _, nc := range t.columns() {
		if nc.c.read() != nc.c.len() {
			panic(fmt.Sprintf("workload: replay consumed %d of %d values of the tape's %s column",
				nc.c.read(), nc.c.len(), nc.name))
		}
	}
}
