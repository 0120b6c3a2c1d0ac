package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildSnapshots makes a deterministic control/experiment pair.
func buildSnapshots() []Snapshot {
	mk := func(label string, scale int64) Snapshot {
		r := NewRegistry()
		r.Counter("percpu_miss_total").Add(10 * scale)
		r.Counter("transfer_hit_total").Add(100 * scale)
		r.Gauge("heap_bytes").Set(1 << 20)
		h := r.Histogram("alloc_size_bytes", 3, 20)
		for i := int64(0); i < 10*scale; i++ {
			h.Observe(64)
		}
		h.Observe(4096)
		return r.Snapshot(label, 250_000_000)
	}
	return []Snapshot{mk("control", 1), mk("experiment", 2)}
}

func TestWritePrometheusShape(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, buildSnapshots()...); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE wsmalloc_percpu_miss_total counter",
		`wsmalloc_percpu_miss_total{arm="control"} 10`,
		`wsmalloc_percpu_miss_total{arm="experiment"} 20`,
		"# TYPE wsmalloc_heap_bytes gauge",
		"# TYPE wsmalloc_alloc_size_bytes histogram",
		`wsmalloc_alloc_size_bytes_bucket{arm="control",le="128"} 10`,
		`wsmalloc_alloc_size_bytes_bucket{arm="control",le="+Inf"} 11`,
		`wsmalloc_alloc_size_bytes_count{arm="control"} 11`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusUnlabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(1)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot("", 0)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wsmalloc_x_total 1\n") {
		t.Fatalf("unlabeled output wrong:\n%s", b.String())
	}
}

func TestWriteMalloczShape(t *testing.T) {
	var b strings.Builder
	if err := WriteMallocz(&b, buildSnapshots()...); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"MALLOC telemetry (control) @ 250000000 virtual ns",
		"MALLOC telemetry (experiment)",
		"heap_bytes",
		"MALLOC events",
		"percpu_miss_total",
		"MALLOC histogram alloc_size_bytes:",
		"p50=", "p95=", "p99=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("mallocz output missing %q:\n%s", want, out)
		}
	}
}

func TestExportsAreByteStable(t *testing.T) {
	render := func() (string, string, string) {
		snaps := buildSnapshots()
		var p, m, j strings.Builder
		if err := WritePrometheus(&p, snaps...); err != nil {
			t.Fatal(err)
		}
		if err := WriteMallocz(&m, snaps...); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&j, snaps); err != nil {
			t.Fatal(err)
		}
		return p.String(), m.String(), j.String()
	}
	p1, m1, j1 := render()
	p2, m2, j2 := render()
	if p1 != p2 || m1 != m2 || j1 != j2 {
		t.Fatal("exports are not byte-stable across renders")
	}
}

func TestWriteFiles(t *testing.T) {
	base := filepath.Join(t.TempDir(), "metrics")
	trace := TraceDump{
		Events:  []Event{{NowNs: 1, Kind: EvMmap, KindS: EvMmap.String(), A: 4}},
		Total:   7,
		Dropped: 6,
	}
	paths, err := WriteFiles(base, buildSnapshots(), nil, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	data, err := os.ReadFile(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Snapshots []Snapshot `json:"snapshots"`
		Trace     []Event    `json:"trace"`
		Total     int64      `json:"trace_total"`
		Dropped   int64      `json:"trace_dropped"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Snapshots) != 2 || len(doc.Trace) != 1 || doc.Trace[0].KindS != "os_mmap" {
		t.Fatalf("json doc = %+v", doc)
	}
	if doc.Total != 7 || doc.Dropped != 6 {
		t.Fatalf("trace loss counters = %d/%d", doc.Total, doc.Dropped)
	}
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("export %s missing or empty", p)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	snaps := buildSnapshots()
	trace := []Event{{NowNs: 5, Kind: EvSubrelease, KindS: EvSubrelease.String(), A: 1, B: 8}}
	h := NewMux(Endpoints{
		Snapshots: func() []Snapshot { return snaps },
		Trace:     func() TraceDump { return TraceDump{Events: trace, Total: int64(len(trace))} },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if out := get("/metricsz"); !strings.Contains(out, "# TYPE wsmalloc_percpu_miss_total counter") {
		t.Fatalf("/metricsz default not prometheus:\n%s", out)
	}
	if out := get("/metricsz?format=json"); !strings.Contains(out, `"snapshots"`) {
		t.Fatalf("/metricsz json wrong:\n%s", out)
	}
	if out := get("/metricsz?format=text"); !strings.Contains(out, "MALLOC telemetry") {
		t.Fatalf("/metricsz text wrong:\n%s", out)
	}
	if out := get("/tracez"); !strings.Contains(out, "subrelease") {
		t.Fatalf("/tracez wrong:\n%s", out)
	}
	if out := get("/tracez?format=json"); !strings.Contains(out, `"kind": "subrelease"`) {
		t.Fatalf("/tracez json wrong:\n%s", out)
	}
}

func TestEndpointsMuxObservabilityPages(t *testing.T) {
	snaps := buildSnapshots()
	ep := Endpoints{
		Snapshots: func() []Snapshot { return snaps },
		Trace: func() TraceDump {
			return TraceDump{
				Events: []Event{{NowNs: 5, Kind: EvSubrelease, KindS: EvSubrelease.String(), A: 1, B: 8}},
				Total:  9, Dropped: 8,
			}
		},
		Heapz: func(w io.Writer, format string) error {
			if format == "json" {
				_, err := io.WriteString(w, `{"profiles":[]}`)
				return err
			}
			_, err := io.WriteString(w, "heap profile: stub\n")
			return err
		},
		// PageHeapz nil: the page must degrade gracefully, not 404.
	}
	srv := httptest.NewServer(NewMux(ep))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if out := get("/heapz"); !strings.Contains(out, "heap profile: stub") {
		t.Fatalf("/heapz wrong:\n%s", out)
	}
	if out := get("/heapz?format=json"); !strings.Contains(out, `"profiles"`) {
		t.Fatalf("/heapz json wrong:\n%s", out)
	}
	if out := get("/pageheapz"); !strings.Contains(out, "not enabled") {
		t.Fatalf("/pageheapz without renderer should explain itself:\n%s", out)
	}
	// The dropped-event counter surfaces in both /tracez forms.
	if out := get("/tracez"); !strings.Contains(out, "dropped=8") || !strings.Contains(out, "total=9") {
		t.Fatalf("/tracez missing loss counters:\n%s", out)
	}
	if out := get("/tracez?format=json"); !strings.Contains(out, `"trace_dropped": 8`) {
		t.Fatalf("/tracez json missing trace_dropped:\n%s", out)
	}
}
