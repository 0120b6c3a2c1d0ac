// Package telemetry is the fleet observability pipeline: a central
// metrics registry (counters, gauges, log-histograms), a bounded
// ring-buffer tracer for structural allocator events, a simulated-clock
// time-series sampler, and exporters (Prometheus text, JSON, and a
// human-readable mallocz dump modeled on TCMalloc's statsz).
//
// The paper's entire characterization (§2) rests on telemetry like this:
// per-tier hit/miss ratios, malloc cycle breakdowns, fragmentation and
// hugepage-coverage time series. Tiers report through a nil-safe *Sink so
// the disabled path costs a single branch, and every numeric datum is
// either an int64 or an integer-valued float so that merging per-machine
// registries is exact and order-independent — the property that lets
// fleet aggregates fold through the enrolment-order reducer and stay
// bit-identical at any -j (see DESIGN.md, "Telemetry").
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"wsmalloc/internal/stats"
)

// counterShards is how many cache-line-padded cells a Counter stripes
// over. Handles bind round-robin to a shard, so up to this many
// concurrent writers proceed without false sharing.
const counterShards = 8

// counterCell is one shard of a Counter, padded to a 64-byte cache line.
type counterCell struct {
	v int64
	_ [7]int64
}

// Counter is a monotonically-increasing metric. Add is an uncontended
// atomic on the caller's shard; Value folds the shards. Use Handle to get
// a cheap per-worker handle that avoids false sharing under parallel
// fleet runs.
type Counter struct {
	name  string
	cells [counterShards]counterCell
	next  atomic.Uint32
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by d (on shard 0 — fine for the
// single-threaded allocator; parallel writers should use Handle).
func (c *Counter) Add(d int64) { atomic.AddInt64(&c.cells[0].v, d) }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the summed counter value.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.cells {
		sum += atomic.LoadInt64(&c.cells[i].v)
	}
	return sum
}

// Handle binds a cheap write handle to one of the counter's shards,
// round-robin, so concurrent writers spread across cache lines.
func (c *Counter) Handle() *CounterHandle {
	i := c.next.Add(1) - 1
	return &CounterHandle{p: &c.cells[i%counterShards].v}
}

// CounterHandle is a shard-bound writer for one Counter.
type CounterHandle struct{ p *int64 }

// Add increments the handle's shard by d.
func (h *CounterHandle) Add(d int64) { atomic.AddInt64(h.p, d) }

// Inc increments the handle's shard by 1.
func (h *CounterHandle) Inc() { h.Add(1) }

// Gauge is a point-in-time int64 metric (bytes live, coverage in ppm,
// ...). Gauges are refreshed from allocator stats at snapshot time and
// merge across machines by summation.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d to the gauge.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a mutex-protected log2 histogram metric wrapping
// stats.LogHistogram. Sinks observe with unit weight, so bucket counts
// stay integer-valued floats and merging is exact.
type Histogram struct {
	name string
	mu   sync.Mutex
	h    *stats.LogHistogram
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records v with weight 1.
func (h *Histogram) Observe(v float64) { h.ObserveWeighted(v, 1) }

// ObserveWeighted records v with weight w.
func (h *Histogram) ObserveWeighted(v, w float64) {
	h.mu.Lock()
	h.h.AddWeighted(v, w)
	h.mu.Unlock()
}

// MergeLog folds a caller-owned raw histogram into h under its lock.
// This is the buffered-observation flush path: a single-threaded
// producer (the simulated allocator) accumulates per-operation
// observations into an unsynchronized stats.LogHistogram and folds
// them in bulk at snapshot boundaries, keeping the mutex off the
// per-operation hot path. The caller must not mutate src concurrently.
func (h *Histogram) MergeLog(src *stats.LogHistogram) {
	h.mu.Lock()
	h.h.Merge(src)
	h.mu.Unlock()
}

// merge folds other's buckets into h.
func (h *Histogram) merge(other *Histogram) {
	other.mu.Lock()
	src := other.h
	h.mu.Lock()
	h.h.Merge(src)
	h.mu.Unlock()
	other.mu.Unlock()
}

// snapshotValue renders the histogram under its lock.
func (h *Histogram) snapshotValue() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SnapshotLogHistogram(h.name, h.h)
}

// Registry holds every metric by name. Get-or-create accessors are safe
// for concurrent use; names are sorted at snapshot time so exports are
// deterministic regardless of registration order.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the log2 histogram registered under name, creating
// it over exponents [minExp, maxExp] on first use. The range is fixed at
// creation; later callers get the existing histogram regardless of the
// range they pass.
func (r *Registry) Histogram(name string, minExp, maxExp int) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{name: name, h: stats.NewLogHistogram(minExp, maxExp)}
		r.histograms[name] = h
	}
	return h
}

// Merge folds other into r: counters and gauges add, histograms merge
// bucket-wise. Because every value is an integer (or an integer-valued
// float), merging is commutative and associative, so the fold result
// depends only on which registries were merged — not on order. The fleet
// reducer still merges in enrolment order to honour the PR 2 determinism
// contract.
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	r.MergeCumulative(other)
	other.mu.RLock()
	defer other.mu.RUnlock()
	for name, g := range other.gauges {
		r.Gauge(name).Add(g.Value())
	}
}

// MergeCumulative folds other's counters and histograms into r, leaving
// gauges alone. This is the carry-over merge for a restarted machine:
// its cumulative event history survives the process that died, but its
// point-in-time gauges (heap bytes, live objects, ...) die with the
// heap, so folding them forward would double-count state that no longer
// exists.
func (r *Registry) MergeCumulative(other *Registry) {
	if other == nil {
		return
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	for name, c := range other.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range other.histograms {
		minExp, maxExp := h.h.Range()
		r.Histogram(name, minExp, maxExp).merge(h)
	}
}

// Snapshot renders every metric, sorted by name, stamped with a label
// (e.g. "control"/"experiment") and a virtual-clock timestamp. Sorting
// makes the export byte-stable regardless of map iteration or
// registration order.
func (r *Registry) Snapshot(label string, nowNs int64) Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{Label: label, NowNs: nowNs}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	for _, h := range r.histograms {
		s.Histograms = append(s.Histograms, h.snapshotValue())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// MetricValue is one exported counter or gauge.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketValue is one occupied histogram bucket: [Lo, Hi) holding Count
// observations.
type BucketValue struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count float64 `json:"count"`
}

// HistogramValue is one exported histogram: occupied buckets plus
// interpolated p50/p95/p99, the quantile lines the mallocz dump prints.
type HistogramValue struct {
	Name    string        `json:"name"`
	Total   float64       `json:"total"`
	Buckets []BucketValue `json:"buckets,omitempty"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
}

// Snapshot is one point-in-time rendering of a registry, sorted by
// metric name.
type Snapshot struct {
	Label      string           `json:"label,omitempty"`
	Design     string           `json:"design,omitempty"`
	NowNs      int64            `json:"now_ns"`
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// SnapshotLogHistogram renders any stats.LogHistogram in exporter form:
// occupied buckets plus interpolated p50/p95/p99. It is also how
// internal/profiler exports its size/lifetime histograms as JSON.
func SnapshotLogHistogram(name string, h *stats.LogHistogram) HistogramValue {
	out := HistogramValue{
		Name:  name,
		Total: h.Total(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for _, b := range h.Buckets() {
		if b.Weight != 0 {
			out.Buckets = append(out.Buckets, BucketValue{Lo: b.Lo, Hi: b.Lo * 2, Count: b.Weight})
		}
	}
	return out
}
