package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call: its name ("layer.Call"), start and end in ns
// since the tracer started, and the index of the span that was open
// when it began (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. The harness is single-threaded, so spans
// nest strictly: begin pushes, end pops. A nil tracer records nothing,
// which is how untraced units run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	return t.spans[i].dur()
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// harnessLayer names the harness's own spans.
const harnessLayer = "perfbench"

type ledgerRow struct {
	layer       string
	calls       int
	total, self time.Duration
}

// ledger is the self-time account of one root span: each layer's self
// time (span time not covered by child spans). The self time of the
// harness's own spans (layer "perfbench") is "other": time inside the
// traced section that no layer span covers.
type ledger struct {
	rows  []ledgerRow
	other time.Duration
	wall  time.Duration
}

func (l ledger) otherFrac() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.other) / float64(l.wall)
}

// ledger accounts the subtree under root. It fails when a child span
// lies outside its parent or the self times do not sum to the root's
// wall time, either of which would make the account wrong.
func (t *tracer) ledger(root int) (ledger, error) {
	l := ledger{wall: t.spans[root].dur()}
	self := make(map[int]time.Duration)
	in := map[int]bool{root: true}
	for i := root; i < len(t.spans); i++ {
		s := t.spans[i]
		if i != root && !in[s.Parent] {
			continue
		}
		in[i] = true
		self[i] += s.dur()
		if i == root {
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return l, fmt.Errorf("span %s [%d,%d] outside parent %s [%d,%d]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		self[s.Parent] -= s.dur()
	}
	byLayer := map[string]*ledgerRow{}
	var sum time.Duration
	for i, d := range self {
		sum += d
		layer := layerOf(t.spans[i].Name)
		if layer == harnessLayer {
			l.other += d
			continue
		}
		r := byLayer[layer]
		if r == nil {
			r = &ledgerRow{layer: layer}
			byLayer[layer] = r
		}
		r.calls++
		r.self += d
		r.total += t.spans[i].dur()
	}
	for _, r := range byLayer {
		l.rows = append(l.rows, *r)
	}
	sort.Slice(l.rows, func(i, j int) bool { return l.rows[i].self > l.rows[j].self })
	if sum != l.wall {
		return l, fmt.Errorf("self times sum to %v, traced wall is %v", sum, l.wall)
	}
	return l, nil
}

// print writes the ledger table; the last two rows are the uncovered
// remainder and the total, so the table always sums to the wall time.
func (l ledger) print(w io.Writer) {
	pct := func(d time.Duration) float64 {
		if l.wall <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(l.wall)
	}
	fmt.Fprintf(w, "ledger %-16s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, r := range l.rows {
		fmt.Fprintf(w, "ledger %-16s %8d %12.3f %12.3f %7.2f\n", r.layer, r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6, pct(r.self))
	}
	fmt.Fprintf(w, "ledger %-16s %8s %12s %12.3f %7.2f\n", "(other)", "", "", float64(l.other)/1e6, pct(l.other))
	fmt.Fprintf(w, "ledger %-16s %8s %12s %12.3f %7.2f\n", "(wall)", "", "", float64(l.wall)/1e6, 100.0)
}
