// Command perfbench is the simulator's host-cost benchmark. It calls the
// repository's packages in-process on one worker and reports end-to-end
// host metrics (untraced) or per-layer metrics (traced) as one JSON line.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench --workload fleet_ab|daemon --seed N --seconds S --trace 0|1
//	          [--state-dir DIR]
//
// Untraced (--trace 0), the run repeats the workload's fixed-size unit
// while another fits in S seconds (at least once) and reports the
// median set-up time and the median unit time in multiples of a
// reference loop timed around each unit. Traced (--trace 1), it runs one
// untraced and one traced unit plus the layer probes, writes the spans
// to the state directory and prints the per-layer metrics and the
// self-time ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"wsmalloc/internal/profiling"
)

// outcome is what one unit of a workload did: how many operations it
// attempted, how many of them failed, and the digest of its output.
type outcome struct {
	attempted, failed int64
	digest            string
}

// bench is one benchmark workload. setup builds the state one unit
// needs (timed as setup_s), unit runs the timed section (sampling clk
// after each operation), probe adds the traced run's per-layer metrics,
// and teardown drops the state.
type bench interface {
	setup(tr *tracer) error
	unit(tr *tracer, clk *refClock) outcome
	probe(tr *tracer, m metrics) error
	teardown()
}

// setupReps is the minimum number of set-ups a run makes: set-up is
// cheap next to a unit on fleet_ab, so repeating it steadies its median.
var setupReps = map[string]int{"fleet_ab": 51, "daemon": 1}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet_ab or daemon")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time; untraced runs repeat units until it has passed")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	stateDir := flag.String("state-dir", ".bench_build/perfbench", "directory for persistence, spans and exports")
	flag.Parse()

	profiling.TuneGC()
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*stateDir, "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	var w bench
	switch *name {
	case "fleet_ab":
		w = newFleetAB(*seed, dir)
	case "daemon":
		w = newDaemonBench(*seed, dir)
	default:
		fail(fmt.Errorf("unknown workload %q (want fleet_ab or daemon)", *name))
	}

	printHost(*name, *seed, dir)
	var res result
	if *trace == 1 {
		res, err = traced(w, *name, *seed, *stateDir)
	} else {
		res, err = untraced(w, *name, *seconds)
	}
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects before a timed section so one unit's garbage does
// not pace the next unit's collector. Freed pages stay with the process:
// returning them would add page-fault time that varies with the host.
func settle() { runtime.GC() }

// timedSetup runs one set-up and returns its wall time in seconds.
func timedSetup(w bench, tr *tracer) (float64, error) {
	settle()
	t0 := time.Now()
	err := w.setup(tr)
	return time.Since(t0).Seconds(), err
}

// unitTimes is one timed unit: host wall and CPU seconds, and the
// reference time the unit's refClock read.
type unitTimes struct {
	wall, cpu, ref float64
}

// timeUnit runs one unit untraced, with reference slices before it and
// after each of its operations.
func timeUnit(w bench) (unitTimes, outcome) {
	settle()
	clk := &refClock{}
	clk.sample()
	before := clk.wall
	c0, t0 := cpuSeconds(), time.Now()
	o := w.unit(nil, clk)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	in := clk.wall - before
	return unitTimes{wall: wall - in, cpu: cpu - in, ref: clk.ref()}, o
}

// The reference loop: refIters iterations of a dependent xorshift chain
// define one "ref"; a slice runs refSliceIters of them.
const (
	refIters      = 100_000_000
	refSliceIters = 5_000_000
)

// refSink keeps the reference loop from being optimised away.
var refSink uint64

// refLoop times n iterations of a dependent chain of integer operations
// that touches no memory: it reads the host's current core speed, which
// drifts on a shared host, without depending on the program under test.
func refLoop(n int) float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t0).Seconds()
}

// refClock samples the reference loop in short slices between a unit's
// operations, so the reference reads the host's speed across the whole
// unit. A nil clock samples nothing (traced units).
type refClock struct {
	slices int
	wall   float64 // total wall time of the slices
}

func (c *refClock) sample() {
	if c == nil {
		return
	}
	c.wall += refLoop(refSliceIters)
	c.slices++
}

// ref is the mean slice time scaled to refIters iterations.
func (c *refClock) ref() float64 {
	return c.wall / float64(c.slices) * refIters / refSliceIters
}

// untraced repeats set-up + unit while another unit still fits in the
// measurement time (at least once). It reports the median set-up time
// and the median unit wall and CPU time in multiples of the reference
// loop; the raw seconds are printed as a record.
func untraced(w bench, name string, seconds float64) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	var setups []float64
	var units []unitTimes
	digest := ""
	start := time.Now()
	last := 0.0
	for len(units) == 0 || time.Since(start).Seconds()+last <= seconds {
		u0 := time.Now()
		s, err := timedSetup(w, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, s)
		u, o := timeUnit(w)
		w.teardown()
		res.add(o, &digest, name)
		units = append(units, u)
		last = time.Since(u0).Seconds()
	}
	for len(setups) < setupReps[name] {
		s, err := timedSetup(w, nil)
		if err != nil {
			return res, err
		}
		w.teardown()
		setups = append(setups, s)
	}
	field := func(f func(u unitTimes) float64) []float64 {
		out := make([]float64, len(units))
		for i, u := range units {
			out[i] = f(u)
		}
		return out
	}
	walls := field(func(u unitTimes) float64 { return u.wall })
	cpus := field(func(u unitTimes) float64 { return u.cpu })
	refs := field(func(u unitTimes) float64 { return u.ref })
	fmt.Printf("units: %d  wall_s %v  cpu_s %v  ref_s %v\n", len(units), walls, cpus, refs)
	fmt.Printf("record: wall_s %.4f  cpu_s %.4f  ref_s %.4f (medians)\n", median(walls), median(cpus), median(refs))
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("wall_ref", median(field(func(u unitTimes) float64 { return u.wall / u.ref })), "ref")
	res.Metrics.set("cpu_ref", median(field(func(u unitTimes) float64 { return u.cpu / u.ref })), "ref")
	return res, nil
}

// add folds one unit's outcome into the result. Every unit of a run
// uses the same seed, so a digest that differs from the first unit's
// counts as a failed operation.
func (r *result) add(o outcome, first *string, name string) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	fmt.Printf("digest %s %s\n", name, o.digest)
	if *first == "" {
		*first = o.digest
	} else if o.digest != *first {
		fmt.Printf("digest mismatch: %s != %s\n", o.digest, *first)
		r.Failed++
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// traced runs one untraced unit (the overhead reference), one traced
// unit and the layer probes, then prints the ledger and writes the spans.
func traced(w bench, name string, seed uint64, stateDir string) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	m := res.Metrics
	digest := ""

	if _, err := timedSetup(w, nil); err != nil {
		return res, err
	}
	plain, o := timeUnit(w)
	res.add(o, &digest, name)
	w.teardown()
	m.set("host.wall_s", plain.wall, "s")
	m.set("host.cpu_s", plain.cpu, "s")
	m.set("host.ref_ms", plain.ref*1e3, "ms")

	tr := newTracer()
	root := tr.begin("perfbench." + name)
	tr.begin("perfbench.setup")
	err := w.setup(tr)
	tr.end()
	if err != nil {
		return res, err
	}
	settle()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.begin("perfbench.unit")
	res.add(w.unit(tr, nil), &digest, name)
	unitWall := tr.end()
	runtime.ReadMemStats(&ms1)
	tr.end()

	m.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	m.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	m.set("trace.overhead_frac", unitWall.Seconds()/plain.wall-1, "ratio")

	ledger, err := tr.ledger(root)
	if err != nil {
		res.Correct = false
		fmt.Println("ledger:", err)
	}
	ledger.print(os.Stdout)
	m.set("ledger.other_frac", ledger.otherFrac(), "ratio")

	tr.begin("perfbench.probes")
	err = w.probe(tr, m)
	tr.end()
	w.teardown()
	if err != nil {
		return res, err
	}
	m.set("go.peak_rss_mb", peakRSSMB(), "MB")
	for _, n := range perLayerNames {
		if _, ok := m[n.name]; !ok {
			m.set(n.name, 0, n.unit) // layer not exercised by this workload
		}
	}

	path := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return res, err
	}
	fmt.Println("spans:", path)
	return res, nil
}

// perLayerNames is every per-layer metric a traced run reports, with its
// unit; a workload that does not exercise a layer reports 0 for it.
var perLayerNames = []struct{ name, unit string }{
	{"workload.events", "count"},
	{"workload.gen_ns_per_event", "ns"},
	{"workload.preload_ms", "ms"},
	{"core.new_us", "us"},
	{"core.malloc_ns", "ns"},
	{"core.free_ns", "ns"},
	{"percpu.malloc_ns", "ns"},
	{"transfercache.malloc_ns", "ns"},
	{"centralfreelist.malloc_ns", "ns"},
	{"pageheap.malloc_ns", "ns"},
	{"percpu.alloc_hit_ratio", "ratio"},
	{"transfercache.hit_ratio", "ratio"},
	{"centralfreelist.spans_created", "count"},
	{"pageheap.allocs", "count"},
	{"mem.mmap_calls", "count"},
	{"core.alloc_failures", "count"},
	{"fleet.machine_runs", "count"},
	{"fleet.machine_run_ms_p50", "ms"},
	{"fleet.machine_run_ms_p90", "ms"},
	{"experiments.points", "count"},
	{"experiments.point_ms", "ms"},
	{"daemon.ticks", "count"},
	{"daemon.tick_ms_p50", "ms"},
	{"daemon.tick_ms_p90", "ms"},
	{"daemon.gwp_tick_ms_p50", "ms"},
	{"daemon.restarts", "count"},
	{"gwp.windows", "count"},
	{"gwp.warehouse_kb", "KiB"},
	{"snapshot.checkpoints", "count"},
	{"snapshot.checkpoint_ms_p50", "ms"},
	{"snapshot.checkpoint_mb", "MB"},
	{"telemetry.on_off_ratio", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.peak_rss_mb", "MB"},
	{"host.wall_s", "s"},
	{"host.cpu_s", "s"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"ledger.other_frac", "ratio"},
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
