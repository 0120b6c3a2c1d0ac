package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/daemon"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/workload"
)

// The daemon workload: daemon.DefaultConfig (64-machine catalog, 25%
// = 16 enrolled, 2 ms ticks, churn, Observe + heapprof + trace ring)
// on one worker, collecting a gwp window every 8 ticks and
// checkpointing every 16, with no HTTP scraper.
const (
	daemonWarmTicks  = 4
	daemonTimedTicks = 32
	daemonGWPEvery   = 8
	daemonCkptEvery  = 16
)

type daemonBench struct {
	seed  uint64
	dir   string
	units int

	cfg     daemon.Config
	d       *daemon.Daemon
	unitDir string

	// Filled by traced units only.
	tickMs, gwpTickMs, ckptMs []float64
	events                    float64
}

func newDaemonBench(seed uint64, dir string) *daemonBench {
	return &daemonBench{seed: seed, dir: dir}
}

// setup builds a daemon in a fresh directory and runs the warm-up
// ticks, which finish every machine's preload and fill the caches.
func (b *daemonBench) setup(tr *tracer) error {
	b.units++
	b.unitDir = filepath.Join(b.dir, fmt.Sprintf("daemon-%d", b.units))
	cfg := daemon.DefaultConfig(b.seed)
	cfg.Workers = 1
	cfg.GWP.Enabled = true
	cfg.GWP.Dir = filepath.Join(b.unitDir, "gwp")
	cfg.GWP.CollectEveryTicks = daemonGWPEvery
	cfg.CheckpointDir = filepath.Join(b.unitDir, "ckpt")
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	b.cfg = cfg
	tr.begin("daemon.New")
	d, err := daemon.New(cfg)
	tr.end()
	if err != nil {
		return err
	}
	b.d = d
	for i := 0; i < daemonWarmTicks; i++ {
		tr.begin("daemon.Tick")
		err := d.Tick()
		tr.end()
		if err != nil {
			return fmt.Errorf("warm-up tick %d: %w", i+1, err)
		}
	}
	return nil
}

func (b *daemonBench) teardown() {
	if b.d != nil {
		if err := b.d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon close:", err)
		}
		b.d = nil
	}
	os.RemoveAll(b.unitDir)
}

// unit runs the timed ticks and checkpoints, then checks the daemon's
// status and digests its final metrics export.
func (b *daemonBench) unit(tr *tracer, clk *refClock) outcome {
	var o outcome
	for i := 1; i <= daemonTimedTicks; i++ {
		tr.begin("daemon.Tick")
		err := b.d.Tick()
		d := tr.end()
		clk.sample()
		o.attempted++
		if err != nil {
			fmt.Println("failed: tick:", err)
			o.failed++
		}
		if tr != nil {
			b.tickMs = append(b.tickMs, float64(d)/1e6)
			if (daemonWarmTicks+i)%daemonGWPEvery == 0 {
				b.gwpTickMs = append(b.gwpTickMs, float64(d)/1e6)
			}
		}
		if i%daemonCkptEvery == 0 {
			// The ledger books checkpoint time to the persistence layer.
			tr.begin("snapshot.daemon.Checkpoint")
			err := b.d.Checkpoint()
			d := tr.end()
			o.attempted++
			if err != nil {
				fmt.Println("failed: checkpoint:", err)
				o.failed++
			}
			if tr != nil {
				b.ckptMs = append(b.ckptMs, float64(d)/1e6)
			}
		}
	}
	st := b.d.Status()
	if want := int64(daemonWarmTicks + daemonTimedTicks); st.Tick != want || st.MachinesStalled != 0 {
		fmt.Printf("failed: status tick %d (want %d), %d machines stalled\n", st.Tick, want, st.MachinesStalled)
		o.failed++
	}
	tr.begin("telemetry.metricsz")
	export, err := b.metricsExport()
	tr.end()
	if err != nil {
		fmt.Println("failed: metrics export:", err)
		o.failed++
	}
	h := sha256.New()
	h.Write(export)
	o.digest = "metricsz=" + sum(h)
	if tr != nil {
		b.events = gaugeSum(export, "wsmalloc_mallocs")
	}
	return o
}

// metricsExport reads /metricsz in-process, as a scraper would.
func (b *daemonBench) metricsExport() ([]byte, error) {
	rec := httptest.NewRecorder()
	b.d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("/metricsz: HTTP %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// gaugeSum adds the samples of one metric in a Prometheus text export.
func gaugeSum(export []byte, name string) float64 {
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(export))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// probe reports the daemon, gwp and snapshot layers from the traced
// unit, checks that the last checkpoint resumes at the same tick, and
// runs the shared layer probes over the enrolled machines.
func (b *daemonBench) probe(tr *tracer, m metrics) error {
	st := b.d.Status()
	m.set("workload.events", b.events, "count")
	m.set("daemon.ticks", float64(len(b.tickMs)), "count")
	m.set("daemon.tick_ms_p50", quantile(b.tickMs, 0.5), "ms")
	m.set("daemon.tick_ms_p90", quantile(b.tickMs, 0.9), "ms")
	m.set("daemon.gwp_tick_ms_p50", quantile(b.gwpTickMs, 0.5), "ms")
	m.set("daemon.restarts", float64(st.Restarts), "count")
	m.set("gwp.windows", float64(st.GWPWindowsTotal), "count")
	m.set("gwp.warehouse_kb", float64(dirBytes(b.cfg.GWP.Dir))/1024, "KiB")
	m.set("snapshot.checkpoints", float64(len(b.ckptMs)), "count")
	m.set("snapshot.checkpoint_ms_p50", quantile(b.ckptMs, 0.5), "ms")
	m.set("snapshot.checkpoint_mb", float64(dirBytes(b.cfg.CheckpointDir))/(1<<20), "MB")

	cfg := b.cfg
	cfg.Resume = true
	t0 := time.Now()
	tr.begin("daemon.New")
	d2, err := daemon.New(cfg)
	tr.end()
	if err != nil {
		return fmt.Errorf("resume from checkpoint: %w", err)
	}
	got := d2.Status().Tick
	d2.Close()
	if got != st.Tick {
		return fmt.Errorf("resumed daemon at tick %d, checkpointed at tick %d", got, st.Tick)
	}
	fmt.Printf("resume: tick %d restored in %.3fs\n", got, time.Since(t0).Seconds())

	// The enrolled machines, as daemon.New picks them.
	cat := fleet.New(cfg.Machines, cfg.Seed)
	n := int(float64(cfg.Machines) * cfg.SampleFraction)
	stride := cfg.Machines / n
	machines := make([]fleet.Machine, n)
	for i := range machines {
		machines[i] = cat.Machines[i*stride]
	}
	return layerProbes(tr, m, machines, []core.Config{cfg.AllocConfig}, workload.DefaultOptions(0).TimeWarpGamma)
}
