package telemetry

import (
	"fmt"
	"io"
	"net/http"
)

// Endpoints bundles the accessors behind the live observability pages.
// Every field is optional; a nil accessor serves empty output for its
// endpoint. Heapz and PageHeapz are render callbacks (rather than data
// accessors) so this package never imports the profiler or the
// allocator core — the caller closes over them and writes directly.
type Endpoints struct {
	// Snapshots backs /metricsz.
	Snapshots func() []Snapshot
	// Series, when set, contributes the retained per-tick series ring to
	// /metricsz?format=json (the "series" key), the live counterpart of
	// the -metrics-out JSON document's sampler series.
	Series func() []Snapshot
	// Trace backs /tracez; the dump carries the ring's loss counters.
	Trace func() TraceDump
	// Heapz backs /heapz. format is "" (text) or "json".
	Heapz func(w io.Writer, format string) error
	// PageHeapz backs /pageheapz. format is "" (text) or "json".
	PageHeapz func(w io.Writer, format string) error
	// Status backs /statusz; the returned value is rendered as JSON.
	// Nil serves a minimal liveness document.
	Status func() any
	// Health backs /healthz; a non-nil error turns the page into a 503
	// carrying the error text. Nil means "healthy whenever serving".
	Health func() error
}

// readOnly rejects anything but GET and HEAD with 405, the guard every
// observability page shares (mutating admin endpoints live on their own
// mux in the daemon, POST-only).
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// NewMux serves the live observability endpoints:
//
//	/metricsz          Prometheus text (default), ?format=json, ?format=text (mallocz)
//	/tracez            recent events + drop counters, plain text or ?format=json
//	/heapz             sampled heap profile views, pprof-style text or ?format=json
//	/pageheapz         hugepage occupancy + fragmentation, text or ?format=json
//	/healthz           liveness: "ok" or a 503 with the health error
//	/statusz           JSON service status from the Status accessor
//
// All pages are read-only: non-GET/HEAD methods get 405.
//
// Accessors are called per request, so the handler always reports the
// caller's latest state (the CLIs pass closures over the finished run;
// a long-lived embedder could pass live accessors).
func NewMux(ep Endpoints) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", readOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ep.Health != nil {
			if err := ep.Health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unhealthy: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/statusz", readOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var st any
		if ep.Status != nil {
			st = ep.Status()
		} else {
			st = map[string]any{"serving": true}
		}
		_ = WriteJSON(w, st)
	}))
	mux.HandleFunc("/metricsz", readOnly(func(w http.ResponseWriter, r *http.Request) {
		var ss []Snapshot
		if ep.Snapshots != nil {
			ss = ep.Snapshots()
		}
		switch r.URL.Query().Get("format") {
		case "json":
			var series []Snapshot
			if ep.Series != nil {
				series = ep.Series()
			}
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSON(w, jsonDoc{Snapshots: ss, Series: series})
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = WriteMallocz(w, ss...)
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = WritePrometheus(w, ss...)
		}
	}))
	mux.HandleFunc("/tracez", readOnly(func(w http.ResponseWriter, r *http.Request) {
		var dump TraceDump
		if ep.Trace != nil {
			dump = ep.Trace()
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSON(w, dump)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace: retained=%d total=%d dropped=%d\n",
			len(dump.Events), dump.Total, dump.Dropped)
		for _, e := range dump.Events {
			fmt.Fprintf(w, "%12d ns  %-26s a=%d b=%d\n", e.NowNs, e.Kind.String(), e.A, e.B)
		}
	}))
	render := func(path string, fn func(w io.Writer, format string) error) {
		mux.HandleFunc(path, readOnly(func(w http.ResponseWriter, r *http.Request) {
			if fn == nil {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintf(w, "%s: not enabled for this run\n", path)
				return
			}
			format := ""
			if r.URL.Query().Get("format") == "json" {
				format = "json"
				w.Header().Set("Content-Type", "application/json")
			} else {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			}
			if err := fn(w, format); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	}
	render("/heapz", ep.Heapz)
	render("/pageheapz", ep.PageHeapz)
	return mux
}

// ServeEndpoints blocks serving the mux on addr, so an embedder can curl
// the pages after a run.
func ServeEndpoints(addr string, ep Endpoints) error {
	return http.ListenAndServe(addr, NewMux(ep))
}
