// Command fleet-daemon runs the long-lived fleet observability control
// plane: a checkpointed fleet of simulated machines advances virtual
// time in ticks indefinitely under diurnal traffic and machine churn,
// while the daemon streams every machine's telemetry into mergeable
// quantile sketches and a bounded per-tick series ring, watches its own
// exports for regressions, and serves the live pages over HTTP.
//
// Usage:
//
//	fleet-daemon [-listen :8080] [-machines 64] [-sample 0.25] [-seed 1]
//	             [-design optimized] [-tick-ms 2] [-diurnal-ms 16] [-j N]
//	             [-churn 0.002] [-restart-on-oom] [-ring 256]
//	             [-ticks 0] [-tick-wall-ms 0]
//	             [-wd-window 16] [-wd-rate-threshold 1.0] [-wd-min-rate 1]
//	             [-rollout-stage-ticks 8] [-rollout-settle-ticks 2]
//	             [-rollout-threshold 0.5]
//	             [-alert-log alerts.jsonl] [-webhook URL]
//	             [-checkpoint-dir DIR] [-checkpoint-every-ticks 64] [-resume]
//	             [-gwp-dir DIR] [-gwp-every-ticks 16] [-gwp-sample 0.01]
//	             [-gwp-min 1]
//
// Endpoints: /metricsz (Prometheus; ?format=json includes the series
// ring), /tracez, /heapz, /pageheapz, /healthz, /statusz, /alertz, and
// the POST-only admin API /admin/{pause,resume,checkpoint,inject,quit,
// rollout} (/admin/inject?ticks=N&frac=F cold-restarts a machine
// fraction for N ticks — the watchdog demo's fault burst;
// /admin/rollout?design=DESIGN stages a live design-point rollout
// through 1% → 10% → 100% of the fleet with automatic rollback, the
// paper's 1%-experiment methodology as a control-plane operation).
//
// -ticks bounds the run (0 = run until /admin/quit or SIGINT/SIGTERM);
// -tick-wall-ms paces ticks in wall time. On SIGINT/SIGTERM the daemon
// checkpoints (when -checkpoint-dir is set) and exits cleanly; -resume
// continues a checkpointed run bit-identically.
//
// -gwp-dir enables continuous fleet profiling: every -gwp-every-ticks
// ticks a rotating -gwp-sample fraction of the enrolled machines is
// profiled into one window of the on-disk profile warehouse, queried
// offline with gwpquery. The warehouse honours the same kill/resume
// bit-identity contract as the checkpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsmalloc/internal/daemon"
	"wsmalloc/internal/fleet"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	machines := flag.Int("machines", 64, "fleet catalog size")
	sample := flag.Float64("sample", 0.25, "fraction of machines enrolled")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	designFlag := flag.String("design", "optimized", "allocator design point: baseline, optimized, or tier=policy pairs")
	tickMs := flag.Float64("tick-ms", 2, "virtual time per tick in ms")
	diurnalMs := flag.Float64("diurnal-ms", 16, "diurnal load-curve period in ms")
	workers := flag.Int("j", 0, "concurrent machine simulations per tick (0 = all cores)")
	churn := flag.Float64("churn", 0.002, "per-machine cold-restart probability per tick")
	restartOnOOM := flag.Bool("restart-on-oom", false, "cold-restart a machine whose allocation failed")
	ring := flag.Int("ring", 256, "per-tick series ring capacity")
	ticks := flag.Int64("ticks", 0, "stop after this many ticks (0 = run until quit)")
	tickWallMs := flag.Int64("tick-wall-ms", 0, "wall-clock pacing per tick in ms (0 = free-running)")
	wdWindow := flag.Int("wd-window", 16, "watchdog baseline window in ticks")
	wdRate := flag.Float64("wd-rate-threshold", 1.0, "watchdog relative rate-change threshold (1.0 = 2x baseline)")
	wdMinRate := flag.Float64("wd-min-rate", 1, "minimum baseline events/tick for a rate alert")
	rolloutStageTicks := flag.Int("rollout-stage-ticks", 8, "baked ticks per rollout stage before the promotion gate")
	rolloutSettleTicks := flag.Int("rollout-settle-ticks", 2, "gate-free ticks after each rollout stage swap (cold-cache settle)")
	rolloutThreshold := flag.Float64("rollout-threshold", 0.5, "max relative worsening of a watched rate (candidate vs control) the promotion gate tolerates")
	alertLog := flag.String("alert-log", "", "append one JSON alert per line to this file")
	webhook := flag.String("webhook", "", "POST each alert to this URL (best-effort)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for daemon checkpoints")
	checkpointEvery := flag.Int("checkpoint-every-ticks", 64, "automatic checkpoint cadence in ticks (needs -checkpoint-dir)")
	resume := flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir")
	gwpDir := flag.String("gwp-dir", "", "profile warehouse directory (enables continuous fleet profiling)")
	gwpEvery := flag.Int("gwp-every-ticks", 16, "ticks per profile window (needs -gwp-dir)")
	gwpSample := flag.Float64("gwp-sample", 0.01, "fraction of enrolled machines profiled per window")
	gwpMin := flag.Int("gwp-min", 1, "minimum machines profiled per window")
	flag.Parse()

	dp, acfg, err := fleet.ResolveDesign(*designFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *resume && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -checkpoint-dir")
		os.Exit(2)
	}

	cfg := daemon.DefaultConfig(*seed)
	cfg.Machines = *machines
	cfg.SampleFraction = *sample
	cfg.AllocConfig = acfg
	cfg.Design = dp.String()
	cfg.TickNs = int64(*tickMs * 1e6)
	cfg.DiurnalPeriodNs = int64(*diurnalMs * 1e6)
	cfg.Workers = *workers
	cfg.ChurnPerTick = *churn
	cfg.RestartOnOOM = *restartOnOOM
	cfg.RingCapacity = *ring
	cfg.Watchdog.Window = *wdWindow
	cfg.Watchdog.RateThreshold = *wdRate
	cfg.Watchdog.MinRate = *wdMinRate
	cfg.Rollout.StageTicks = *rolloutStageTicks
	cfg.Rollout.SettleTicks = *rolloutSettleTicks
	cfg.Rollout.PromoteThreshold = *rolloutThreshold
	cfg.AlertLog = *alertLog
	cfg.WebhookURL = *webhook
	cfg.CheckpointDir = *checkpointDir
	if *checkpointDir != "" {
		cfg.CheckpointEveryTicks = *checkpointEvery
	}
	cfg.Resume = *resume
	cfg.TickWall = time.Duration(*tickWallMs) * time.Millisecond
	cfg.MaxTicks = *ticks
	if *gwpDir != "" {
		cfg.GWP.Enabled = true
		cfg.GWP.Dir = *gwpDir
		cfg.GWP.CollectEveryTicks = *gwpEvery
		cfg.GWP.SampleFraction = *gwpSample
		cfg.GWP.MinPerWindow = *gwpMin
	}

	d, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer d.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()
	st := d.Status()
	fmt.Printf("fleet-daemon: %d machines enrolled, design %s, %gms ticks, serving on %s\n",
		st.Machines, cfg.Design, *tickMs, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		d.Quit()
	}()

	runErr := d.Run(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
	st = d.Status()
	fmt.Printf("fleet-daemon: stopped at tick %d (%.1f ms virtual), %d restarts, %d alerts\n",
		st.Tick, st.VirtualSec*1e3, st.Restarts, st.AlertsTotal)
}
