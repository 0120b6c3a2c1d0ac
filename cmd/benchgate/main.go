// Command benchgate is the CI benchmark regression gate. It reads
// `go test -bench` output on stdin, extracts the headline throughput
// metric of each gated benchmark (the custom machines/s or ops/s
// column, not ns/op), compares every metric against the committed
// baseline in BENCH_fleet.json's bench_smoke block, and fails if any
// of them regressed by more than -max-regress (default 10%). Ratio
// metrics (floorGated) are instead held to a fixed floor — e.g. the
// daemon's observed-vs-bare tick ratio must stay at or above 0.95. On a
// passing run (and with -update, unconditionally) the measured values
// are recorded back into the baseline file, so an intentional perf
// change is committed as part of the same PR that caused it — see
// README "Benchmark baselines" for the update procedure.
//
// Throughput metrics are bigger-is-better, so only a drop can fail the
// gate; a speedup just moves the recorded baseline up.
//
// Usage: go test ./internal/fleet/ -run '^$' -bench ... | benchgate [flags]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// gated lists the benchmarks verify.sh runs and the throughput metric
// each one reports. A gated benchmark missing from stdin is an error:
// it means the bench invocation in verify.sh drifted out of sync.
var gated = []struct{ name, metric string }{
	{"FleetAB/j=1", "machines/s"},
	{"TelemetryDisabled", "machines/s"},
	{"HotLoop", "ops/s"},
	{"DaemonTick", "ticks/s"},
	{"DaemonTick+gwp", "ticks/s"},
}

// aliases renames parsed benchmark names to their recorded bench_smoke
// keys. Go benchmark identifiers can't contain '+', so the
// profiling-on tick benchmark is BenchmarkDaemonTickGwp in code but is
// committed as DaemonTick+gwp, keeping the baseline key aligned with
// the DaemonTick entry it varies.
var aliases = map[string]string{
	"DaemonTickGwp": "DaemonTick+gwp",
}

// floorGated pins benchmark-reported ratio metrics against a fixed
// floor, immune to machine-speed drift (both sides of the ratio are
// measured by the benchmark itself, interleaved in one process — see
// BenchmarkDaemonObserveOverhead). Like the throughput gates, the gate
// takes the best of -count repetitions: sustained neighbor load on a
// shared machine only ever depresses the ratio (the observed arm has
// the larger cache footprint, so contention hits it harder), so the
// best repetition is the estimate closest to the intrinsic overhead. A
// real regression drags every repetition down and still trips the
// floor. The daemon entry is the observability-overhead ceiling: a
// fully observed fleet tick (streaming sketches, series ring,
// watchdog, live pages) must run within 5% of the telemetry-off tick.
var floorGated = []struct {
	name, metric string
	min          float64
	desc         string
}{
	// The gwp floor is 0.90, not 0.95: the interleaved estimate of the
	// collection-tick marginal cost swings several points run to run
	// with process-level state (heap layout, CPU placement) even on an
	// unchanged tree, so a 5% budget gates on noise. 10% still bounds
	// the paper's "profiling must be cheap enough to leave on" claim.
	{"DaemonObserveOverhead", "off/on", 0.95, "daemon observability overhead <5%"},
	{"DaemonGwpOverhead", "on/gwp", 0.90, "continuous profiling overhead <10%"},
}

type smokeEntry struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

type smokeBlock struct {
	MaxRegressFrac float64               `json:"max_regress_frac"`
	Benchmarks     map[string]smokeEntry `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_fleet.json", "baseline file holding the bench_smoke block")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum tolerated fractional throughput drop")
	update := flag.Bool("update", false, "record measured values without gating (baseline refresh)")
	flag.Parse()

	measured := parseBench(os.Stdin)

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	// Decode into a generic map so rewriting bench_smoke preserves any
	// other top-level key the file gains (bench_smoke is its only one).
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatalf("parse %s: %v", *baselinePath, err)
	}
	committed := committedSmoke(doc)

	failed := false
	for _, g := range gated {
		got, ok := measured[g.name]
		if !ok {
			fatalf("benchmark %s missing from input — is the -bench pattern in verify.sh out of sync?", g.name)
		}
		if got.Metric != g.metric {
			fatalf("benchmark %s reported %q, want %q", g.name, got.Metric, g.metric)
		}
		prev, has := committed[g.name]
		switch {
		case *update || !has:
			fmt.Printf("benchgate: %-18s %14.2f %-10s (recorded, no gate)\n", g.name, got.Value, got.Metric)
		case got.Value < prev.Value*(1-*maxRegress):
			fmt.Printf("benchgate: %-18s %14.2f %-10s REGRESSED %.1f%% vs committed %.2f (limit %.0f%%)\n",
				g.name, got.Value, got.Metric, 100*(1-got.Value/prev.Value), prev.Value, 100**maxRegress)
			failed = true
		default:
			fmt.Printf("benchgate: %-18s %14.2f %-10s ok vs committed %.2f (%+.1f%%)\n",
				g.name, got.Value, got.Metric, prev.Value, 100*(got.Value/prev.Value-1))
		}
	}
	for _, fg := range floorGated {
		got, ok := measured[fg.name]
		if !ok {
			fatalf("benchmark %s missing from input — is the -bench pattern in verify.sh out of sync?", fg.name)
		}
		if got.Metric != fg.metric {
			fatalf("benchmark %s reported %q, want %q", fg.name, got.Metric, fg.metric)
		}
		v := got.Value
		if v < fg.min {
			fmt.Printf("benchgate: %-18s %14.3f %-10s BELOW floor %.2f (%s)\n",
				fg.name, v, fg.metric, fg.min, fg.desc)
			failed = true
		} else {
			fmt.Printf("benchgate: %-18s %14.3f %-10s ok vs floor %.2f (%s)\n",
				fg.name, v, fg.metric, fg.min, fg.desc)
		}
	}
	if failed {
		fmt.Println("benchgate: FAIL — if the slowdown is intentional, refresh the baseline (see README, Benchmark baselines)")
		os.Exit(1)
	}

	doc["bench_smoke"] = smokeBlock{MaxRegressFrac: *maxRegress, Benchmarks: measured}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("encode baseline: %v", err)
	}
	if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
		fatalf("write baseline: %v", err)
	}
	fmt.Printf("benchgate: OK — recorded %d benchmarks to %s\n", len(measured), *baselinePath)
}

// parseBench extracts the custom throughput metrics from `go test
// -bench` output: for every "Benchmark<Name>[-P]  N  ... <value>
// <unit>" line whose unit is a gated metric, it records value under
// Name with the -GOMAXPROCS suffix stripped. Lines are echoed through
// so the CI log keeps the raw benchmark output. It returns the best
// value per benchmark across -count repetitions.
func parseBench(f *os.File) map[string]smokeEntry {
	units := make(map[string]bool)
	for _, g := range gated {
		units[g.metric] = true
	}
	for _, fg := range floorGated {
		units[fg.metric] = true
	}
	out := make(map[string]smokeEntry)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends when procs > 1.
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if canonical, ok := aliases[name]; ok {
			name = canonical
		}
		// Metric columns come in (value, unit) pairs after the op count.
		for i := 2; i+1 < len(fields); i += 2 {
			if !units[fields[i+1]] {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				fatalf("bad metric value on line %q: %v", line, err)
			}
			// With -count > 1, keep the best repetition: throughput is
			// bigger-is-better, and the max is the estimate least biased
			// by background interference on a shared CI machine.
			if prev, ok := out[name]; !ok || v > prev.Value {
				out[name] = smokeEntry{Metric: fields[i+1], Value: v}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}
	return out
}

// committedSmoke pulls the previously committed bench_smoke block out
// of the decoded baseline document; absent or malformed blocks yield
// an empty map, which seeds the baseline instead of gating.
func committedSmoke(doc map[string]any) map[string]smokeEntry {
	out := make(map[string]smokeEntry)
	blk, ok := doc["bench_smoke"].(map[string]any)
	if !ok {
		return out
	}
	benches, ok := blk["benchmarks"].(map[string]any)
	if !ok {
		return out
	}
	for name, v := range benches {
		e, ok := v.(map[string]any)
		if !ok {
			continue
		}
		metric, _ := e["metric"].(string)
		value, ok := e["value"].(float64)
		if !ok {
			continue
		}
		out[name] = smokeEntry{Metric: metric, Value: value}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
