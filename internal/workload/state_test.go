package workload

import (
	"bytes"
	"fmt"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/topology"
)

// machineState captures a whole simulated machine — allocator plus
// driver — the way fleet checkpoints do.
func encodeMachine(a *core.Allocator, d *Driver) []byte {
	var e snapshot.Encoder
	a.EncodeState(&e)
	d.EncodeState(&e)
	return e.Finish()
}

func decodeMachine(t *testing.T, blob []byte, a *core.Allocator, d *Driver) {
	t.Helper()
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	if err := a.DecodeState(dec); err != nil {
		t.Fatalf("decode allocator: %v", err)
	}
	if err := d.DecodeState(dec); err != nil {
		t.Fatalf("decode driver: %v", err)
	}
}

// TestDriverKillAndResumeBitIdentical is the tentpole invariant at the
// machine level: halt a run at 50% virtual time (checkpointing at the
// halt), rebuild allocator and driver from the blob, finish the run,
// and require the Result — ops, frees, modeled nanoseconds, allocator
// stats — to equal an uninterrupted run byte for byte.
func TestDriverKillAndResumeBitIdentical(t *testing.T) {
	const seed = 21
	cfg := core.OptimizedConfig()
	prof := Monarch()

	base := DefaultOptions(seed)
	base.Duration = 20 * Millisecond

	uninterrupted := func() Result {
		a := core.New(cfg, topology.New(topology.Default()))
		return Run(prof, a, base)
	}
	want := uninterrupted()

	// Interrupted run: halt (and checkpoint) at 50% virtual time.
	a1 := core.New(cfg, topology.New(topology.Default()))
	var blob []byte
	opts := base
	opts.HaltAtNs = base.Duration / 2
	d1 := NewDriver(prof, a1, opts)
	var checkpointed *Driver
	opts.Checkpoint = func(now int64) { blob = encodeMachine(a1, checkpointed) }
	d1 = NewDriver(prof, a1, opts)
	checkpointed = d1
	d1.Run()
	if !d1.Halted() {
		t.Fatal("run did not halt")
	}
	if blob == nil {
		t.Fatal("no checkpoint taken at halt")
	}

	// Resume in a fresh process image: new allocator, new driver, state
	// overlaid from the blob, HaltAtNs cleared.
	a2 := core.New(cfg, topology.New(topology.Default()))
	d2 := NewDriver(prof, a2, base)
	decodeMachine(t, blob, a2, d2)
	got := d2.Run()

	if got.Ops != want.Ops || got.Frees != want.Frees ||
		got.MallocNs != want.MallocNs || got.AllocatedBytes != want.AllocatedBytes {
		t.Fatalf("resumed result diverges:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Stats != want.Stats {
		t.Fatalf("resumed stats diverge:\ngot  %+v\nwant %+v", got.Stats, want.Stats)
	}
	if len(got.ThreadSeries) != len(want.ThreadSeries) {
		t.Fatalf("thread series length %d != %d", len(got.ThreadSeries), len(want.ThreadSeries))
	}
	for i := range got.ThreadSeries {
		if got.ThreadSeries[i] != want.ThreadSeries[i] {
			t.Fatalf("thread series diverges at %d", i)
		}
	}
}

// TestDriverCadenceCheckpointsResumable: every periodic checkpoint must
// be a valid resume point, not just the final one.
func TestDriverCadenceCheckpointsResumable(t *testing.T) {
	const seed = 33
	cfg := core.BaselineConfig()
	prof := Bigtable()
	base := DefaultOptions(seed)
	base.Duration = 12 * Millisecond

	want := func() Result {
		a := core.New(cfg, topology.New(topology.Default()))
		return Run(prof, a, base)
	}()

	a1 := core.New(cfg, topology.New(topology.Default()))
	var blobs [][]byte
	opts := base
	opts.CheckpointEveryNs = 3 * Millisecond
	var d1 *Driver
	opts.Checkpoint = func(now int64) { blobs = append(blobs, encodeMachine(a1, d1)) }
	d1 = NewDriver(prof, a1, opts)
	d1.Run()
	if len(blobs) < 3 {
		t.Fatalf("expected >=3 cadence checkpoints, got %d", len(blobs))
	}

	for i, blob := range blobs {
		a2 := core.New(cfg, topology.New(topology.Default()))
		d2 := NewDriver(prof, a2, base)
		decodeMachine(t, blob, a2, d2)
		got := d2.Run()
		if got.Ops != want.Ops || got.MallocNs != want.MallocNs || got.Stats != want.Stats {
			t.Fatalf("resume from checkpoint %d diverges", i)
		}
	}
}

// TestDriverOOMKillRestart: under a mapped-byte budget with
// HaltOnAllocFailure, the run halts at the first refused allocation;
// Restart against a fresh allocator keeps the workload position (clock,
// RNG, counters) while losing the heap, and the combined run is
// deterministic across repetitions.
func TestDriverOOMKillRestart(t *testing.T) {
	run := func() (Result, int64, int) {
		cfg := core.OptimizedConfig()
		// The fleet profile preloads a 1 GiB resident heap and maps
		// ~1.13 GiB over this window; the budget sits in between so the
		// run OOMs partway but a restarted (cold) process fits again.
		cfg.Faults = mem.FaultPlan{MappedBytesBudget: 1100 << 20}
		opts := DefaultOptions(5)
		opts.Duration = 30 * Millisecond
		opts.HaltOnAllocFailure = true

		a := core.New(cfg, topology.New(topology.Default()))
		d := NewDriver(Fleet(), a, opts)
		restarts := 0
		var firstKillAt int64
		res := d.Run()
		for d.Halted() {
			if restarts == 0 {
				firstKillAt = d.Now()
			}
			if restarts++; restarts > 50 {
				t.Fatal("restart loop not converging")
			}
			fresh := core.New(cfg, topology.New(topology.Default()))
			d.Restart(fresh)
			res = d.Run()
		}
		return res, firstKillAt, restarts
	}

	res1, killAt1, restarts1 := run()
	res2, killAt2, restarts2 := run()
	if restarts1 == 0 {
		t.Fatal("budget never triggered an OOM kill")
	}
	if killAt1 == 0 {
		t.Fatal("kill timestamp not recorded")
	}
	if restarts1 != restarts2 || killAt1 != killAt2 ||
		res1.Ops != res2.Ops || res1.Stats != res2.Stats {
		t.Fatalf("restart cycle not deterministic: %d/%d kills at %d/%d",
			restarts1, restarts2, killAt1, killAt2)
	}
	if res1.AllocFailures < int64(restarts1) {
		t.Fatalf("each kill should record a failure: %d < %d", res1.AllocFailures, restarts1)
	}
	// The workload kept its position: the completed run still spans the
	// full duration and performed work after the first kill.
	if res1.Duration != 30*Millisecond {
		t.Fatalf("duration %d", res1.Duration)
	}
	if res1.Ops == 0 || res1.Stats.LiveObjects < 0 {
		t.Fatalf("implausible result: %+v", res1)
	}
}

// TestWheelEncodesFarBeforeRing pins the death wheel's encoded order on
// a hand-built wheel: one entry per populated bucket in ascending bucket
// order, and a bucket held both far and in its ring slot is one entry
// with the far objects first. The window starts mid-ring, so the walk
// wraps past slot 0, and far buckets sit before, inside and beyond the
// window. The wheel is built through the insert path: the far parts are
// scheduled while the window is still at bucket 0.
func TestWheelEncodesFarBeforeRing(t *testing.T) {
	newDriver := func() *Driver {
		opts := DefaultOptions(5)
		opts.Duration = 10 * Millisecond
		d := NewDriver(Monarch(), core.New(core.BaselineConfig(), topology.New(topology.Default())), opts)
		d.setThreads(1)
		return d
	}
	obj := func(a uint64) object { return object{addr: a, size: int(a) * 16} }
	d := newDriver()
	w := d.wheel
	w.insert(8200, obj(1)) // beyond the window [0, 4096): far
	w.insert(8200, obj(2))
	w.insert(6000, obj(6))
	w.insert(20000, obj(7))
	w.cur = 5000 // window [5000, 9096) wraps the ring at bucket 8192
	w.insert(5000, obj(4))
	w.insert(8200, obj(3)) // shared with its far part
	w.insert(9095, obj(5))
	w.insert(4000, obj(8)) // behind the window: far
	if len(w.far) != 4 {
		t.Fatalf("insert path left %d far buckets, want 4", len(w.far))
	}
	d.liveCount = 8

	var e snapshot.Encoder
	d.EncodeState(&e)
	blob := e.Finish()

	// Decoding routes every in-window bucket to its ring slot, merging a
	// shared bucket into one chain in encoded order.
	back := newDriver()
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.DecodeState(dec); err != nil {
		t.Fatalf("decode: %v", err)
	}
	type entry struct {
		bucket int64
		addrs  []uint64
	}
	var got []entry
	add := func(b int64, c chain) {
		en := entry{bucket: b}
		back.wheel.walk(c, func(objs []object) {
			for _, x := range objs {
				if x.size != int(x.addr)*16 {
					t.Fatalf("bucket %d: object %d restored with size %d", b, x.addr, x.size)
				}
				en.addrs = append(en.addrs, x.addr)
			}
		})
		if len(en.addrs) > 0 {
			got = append(got, en)
		}
	}
	bw := back.wheel
	add(4000, bw.far[4000])
	for b := bw.cur; b < bw.cur+wheelRingSize; b++ {
		add(b, bw.ring[b&wheelMask])
	}
	add(20000, bw.far[20000])
	want := []entry{{4000, []uint64{8}}, {5000, []uint64{4}}, {6000, []uint64{6}},
		{8200, []uint64{1, 2, 3}}, {9095, []uint64{5}}, {20000, []uint64{7}}}
	if len(bw.far) != 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored wheel %v (far keys %d), want %v", got, len(bw.far), want)
	}

	// The restored wheel holds the same buckets in the same order, so it
	// encodes to the same bytes.
	var again snapshot.Encoder
	back.EncodeState(&again)
	if !bytes.Equal(again.Finish(), blob) {
		t.Fatal("re-encoding the restored driver changed the blob")
	}
}
