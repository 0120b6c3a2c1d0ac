package fleet

import (
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/telemetry"
)

// RunExport is what a finished one-shot run exposes.
type RunExport struct {
	Snapshots []telemetry.Snapshot // nil when telemetry is off
	Profiles  []heapprof.Profile
	// Process is a one-process run's final allocator (nil for a fleet):
	// its series and trace ring ride in BASE.json, and it backs /tracez
	// and /pageheapz. WritePageHeapZ also exports its hugepage maps.
	Process        *core.Allocator
	WritePageHeapZ bool
}

// Export writes the run's telemetry, heap profiles and hugepage maps:
// under -metrics-out to BASE.prom, BASE.json, BASE.mallocz, BASE.heapz,
// BASE.heapz.json and BASE.pageheapz, announcing each file on w;
// otherwise as mallocz, heapz and pageheapz dumps on w.
func (s RunSpec) Export(w io.Writer, x RunExport) error {
	if len(x.Snapshots) > 0 {
		if s.MetricsOut == "" {
			if err := s.emit(w, "mallocz", "", func(w io.Writer) error {
				return telemetry.WriteMallocz(w, x.Snapshots...)
			}); err != nil {
				return err
			}
		} else {
			var series []telemetry.Snapshot
			var trace telemetry.TraceDump
			if x.Process != nil {
				tel := x.Process.Telemetry()
				series, trace = tel.Samples(), tel.Tracer().Dump()
			}
			paths, err := telemetry.WriteFiles(s.MetricsOut, x.Snapshots, series, trace)
			if err != nil {
				return fmt.Errorf("write telemetry: %w", err)
			}
			for _, p := range paths {
				fmt.Fprintf(w, "wrote %s\n", p)
			}
		}
	}
	if len(x.Profiles) > 0 {
		if err := s.emit(w, "heapz", ".heapz", func(w io.Writer) error {
			return heapprof.WriteText(w, x.Profiles...)
		}); err != nil {
			return err
		}
		if s.MetricsOut != "" {
			if err := s.emit(w, "heapz", ".heapz.json", func(w io.Writer) error {
				return heapprof.WriteJSON(w, x.Profiles...)
			}); err != nil {
				return err
			}
		}
	}
	if x.WritePageHeapZ {
		return s.emit(w, "pageheapz", ".pageheapz", func(w io.Writer) error {
			return core.WritePageHeapZ(w, x.Process.PageHeapZ())
		})
	}
	return nil
}

// emit writes one render to BASE+ext under -metrics-out, announcing the
// file on w, or else dumps it on w after a blank line.
func (s RunSpec) emit(w io.Writer, what, ext string, render func(io.Writer) error) error {
	if s.MetricsOut == "" {
		fmt.Fprintln(w)
		if err := render(w); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}
	path := s.MetricsOut + ext
	f, err := os.Create(path)
	if err == nil {
		err = render(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// Serve blocks serving the finished run on -serve. status holds the
// CLI's own /statusz fields; Serve adds the shared ones.
func (s RunSpec) Serve(w io.Writer, service string, x RunExport, status map[string]any) error {
	start := time.Now()
	ep := telemetry.Endpoints{
		Snapshots: func() []telemetry.Snapshot { return x.Snapshots },
		// /statusz identifies the finished run this one-shot server is
		// exposing; /healthz reports "ok" for as long as it serves.
		Status: func() any {
			st := maps.Clone(status)
			st["service"], st["seed"], st["duration_ms"] = service, s.Seed, s.DurationMs
			st["heap_profiles"], st["uptime_sec"] = len(x.Profiles), time.Since(start).Seconds()
			return st
		},
		Health: func() error { return nil },
	}
	if len(x.Profiles) > 0 {
		ep.Heapz = func(w io.Writer, format string) error {
			if format == "json" {
				return heapprof.WriteJSON(w, x.Profiles...)
			}
			return heapprof.WriteText(w, x.Profiles...)
		}
	}
	pages := "/metricsz, /heapz"
	if p := x.Process; p != nil {
		ep.Trace = func() telemetry.TraceDump { return p.Telemetry().Tracer().Dump() }
		ep.PageHeapz = func(w io.Writer, format string) error {
			if format == "json" {
				return core.WritePageHeapZJSON(w, p.PageHeapZ())
			}
			return core.WritePageHeapZ(w, p.PageHeapZ())
		}
		pages = "/metricsz, /tracez, /heapz, /pageheapz"
	}
	// Bind before announcing, so a ":0" address announces the port the
	// kernel picked.
	ln, err := net.Listen("tcp", s.ServeAddr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(w, "serving %s, /statusz and /healthz on %s\n", pages, ln.Addr())
	if err := http.Serve(ln, telemetry.NewMux(ep)); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
