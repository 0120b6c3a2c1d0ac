// The query layer: longitudinal questions answered from warehouse data
// alone, reproducing the paper's characterization offline. Selection
// picks windows (a tier, the last N, or explicit IDs), loading merges
// them with the same deterministic fold the retention tiers use, and
// each query renders byte-stable text — the gwpquery CLI is a thin
// wrapper over these functions, and verify.sh diffs their output across
// -j 1 / -j 4 and across a kill/resume boundary.
package gwp

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/profdiff"
	"wsmalloc/internal/profiler"
)

// SelectIDs resolves a window selection spec against the warehouse:
//
//	all          every window on disk (raw, hourly, daily)
//	raw|hr|day   every window of one tier
//	last:N       the most recent N raw windows
//	id[,id...]   explicit window IDs, kept in the given order
func SelectIDs(w *Warehouse, spec string) ([]string, error) {
	ids, err := w.ListIDs()
	if err != nil {
		return nil, err
	}
	tierIDs := func(tier int) []string {
		var out []string
		for _, id := range ids {
			if t, _, _ := ParseWindowID(id); t == tier {
				out = append(out, id)
			}
		}
		return out
	}
	switch {
	case spec == "" || spec == "all":
		return ids, nil
	case spec == "raw":
		return tierIDs(TierRaw), nil
	case spec == "hr":
		return tierIDs(TierHourly), nil
	case spec == "day":
		return tierIDs(TierDaily), nil
	case strings.HasPrefix(spec, "last:"):
		n, err := strconv.Atoi(spec[len("last:"):])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("gwp: bad selection %q (want last:N)", spec)
		}
		raw := tierIDs(TierRaw)
		if len(raw) > n {
			raw = raw[len(raw)-n:]
		}
		return raw, nil
	default:
		parts := strings.Split(spec, ",")
		for _, id := range parts {
			if _, _, err := ParseWindowID(id); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
}

// LoadMerged loads the selected windows and folds them into one, in
// selection order — the same deterministic merge the retention tiers
// use, so querying eight raw windows equals querying their hourly fold.
func (w *Warehouse) LoadMerged(ids []string) (*Window, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("gwp: selection matches no windows")
	}
	wins := make([]*Window, 0, len(ids))
	for _, id := range ids {
		win, err := w.Load(id)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
	}
	if len(wins) == 1 {
		return wins[0], nil
	}
	merged, err := MergeWindows(wins[0].Meta.Tier, wins[0].Meta.Index, wins)
	if err != nil {
		return nil, err
	}
	merged.Meta.ID = fmt.Sprintf("merge[%s..%s]", ids[0], ids[len(ids)-1])
	return merged, nil
}

// LoadAll loads the selected windows individually (trend queries).
func (w *Warehouse) LoadAll(ids []string) ([]*Window, error) {
	wins := make([]*Window, 0, len(ids))
	for _, id := range ids {
		win, err := w.Load(id)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
	}
	return wins, nil
}

// findView picks one profile view out of a window.
func findView(win *Window, view string) (heapprof.Profile, error) {
	for _, p := range win.Profiles {
		if p.View == view {
			return p, nil
		}
	}
	return heapprof.Profile{}, fmt.Errorf("gwp: window %s has no %s profile", win.Meta.ID, view)
}

// SiteProfiler folds one view's site table into a profiler — the bridge
// from warehouse site rows to the Fig. 7/8 histogram machinery. The
// unsampling weights were applied at capture, so rows land unscaled.
func SiteProfiler(win *Window, view string) (*profiler.Profiler, error) {
	p, err := findView(win, view)
	if err != nil {
		return nil, err
	}
	prof := profiler.New()
	for _, s := range p.Sites {
		prof.AddSiteWeighted(s.ClassBytes, s.LifeExp, s.Objects, s.Bytes, float64(s.Samples))
	}
	return prof, nil
}

// CDFRow is one evaluation point of the Fig. 3/7 size CDF.
type CDFRow struct {
	SizeBytes float64
	ByObjects float64
	ByBytes   float64
}

// SizeCDF evaluates the size CDF (by estimated objects and by estimated
// bytes) of one view at the canonical power-of-two grid.
func SizeCDF(win *Window, view string) ([]CDFRow, error) {
	prof, err := SiteProfiler(win, view)
	if err != nil {
		return nil, err
	}
	xs := profiler.SizeXs()
	byCount, byBytes := prof.SizeCDF(xs)
	rows := make([]CDFRow, len(xs))
	for i := range xs {
		rows[i] = CDFRow{SizeBytes: xs[i], ByObjects: byCount[i], ByBytes: byBytes[i]}
	}
	return rows, nil
}

// fmtF renders floats byte-stably (integral values never degrade to
// scientific notation) — the heapprof/telemetry export convention.
func fmtF(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteSizeCDF renders the CDF as CSV (size_bytes, cdf_objects,
// cdf_bytes) — the Fig. 3 curve, plottable as-is.
func WriteSizeCDF(w io.Writer, rows []CDFRow) error {
	if _, err := fmt.Fprintln(w, "size_bytes,cdf_objects,cdf_bytes"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s\n", fmtF(r.SizeBytes), fmtF(r.ByObjects), fmtF(r.ByBytes)); err != nil {
			return err
		}
	}
	return nil
}

// WriteLifetime renders the Fig. 8 lifetime matrix as CSV: one row per
// populated size bin, one column per lifetime decade.
func WriteLifetime(w io.Writer, rows []profiler.LifetimeRow) error {
	if _, err := fmt.Fprint(w, "size_lo,samples"); err != nil {
		return err
	}
	for e := 3; e <= 16; e++ {
		if _, err := fmt.Fprintf(w, ",%s", heapprof.LifeLabel(e)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s", fmtF(r.SizeLo), fmtF(r.Count)); err != nil {
			return err
		}
		for _, f := range r.Fraction {
			if _, err := fmt.Fprintf(w, ",%s", fmtF(f)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// FragRow is one window's Fig. 11 decomposition in a trend.
type FragRow struct {
	ID       string
	EndTick  int64
	Machines int
	Frag     [10]int64
}

// fragCols names the Fig. 11 terms in FragRow.Frag order.
var fragCols = []string{
	"live_requested", "internal_slack", "percpu_cached", "transfer_cached",
	"cfl_free_span", "filler_free", "region_slack", "hugecache_free",
	"subreleased", "heap",
}

// FragTrend extracts the fragmentation decomposition of each window, in
// the given order — the longitudinal Fig. 11 view.
func FragTrend(wins []*Window) []FragRow {
	rows := make([]FragRow, 0, len(wins))
	for _, win := range wins {
		f := win.Frag
		rows = append(rows, FragRow{
			ID: win.Meta.ID, EndTick: win.Meta.EndTick, Machines: win.Meta.Machines,
			Frag: [10]int64{
				f.LiveRequestedBytes, f.InternalSlackBytes, f.PerCPUCachedBytes,
				f.TransferCachedBytes, f.CFLFreeSpanBytes, f.FillerFreeBytes,
				f.SlackBytes, f.CacheFreeBytes, f.UnmappedSubreleasedBytes, f.HeapBytes,
			},
		})
	}
	return rows
}

// WriteFragTrend renders the trend as CSV, one window per row, one
// Fig. 11 term per column.
func WriteFragTrend(w io.Writer, rows []FragRow) error {
	if _, err := fmt.Fprintf(w, "id,end_tick,machines,%s\n", strings.Join(fragCols, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d", r.ID, r.EndTick, r.Machines); err != nil {
			return err
		}
		for _, v := range r.Frag {
			if _, err := fmt.Fprintf(w, ",%d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// BreakdownRow is one aggregate of a profile view grouped by a site axis.
type BreakdownRow struct {
	Key     string
	Samples int64
	Objects float64
	Bytes   float64
}

// Breakdown aggregates one view's site table by a site axis: "workload"
// (the per-binary view of Fig. 5), "class" (per size class) or "life"
// (per lifetime decade). Rows come back sorted by key (classes and
// decades numerically).
func Breakdown(win *Window, view, by string) ([]BreakdownRow, error) {
	p, err := findView(win, view)
	if err != nil {
		return nil, err
	}
	type agg struct {
		order int64 // numeric sort key for class/life axes
		row   BreakdownRow
	}
	m := map[string]*agg{}
	for _, s := range p.Sites {
		var key string
		var order int64
		switch by {
		case "workload":
			key = s.Workload
		case "class":
			key = fmt.Sprintf("class=%d/%dB", s.SizeClass, s.ClassBytes)
			order = int64(s.SizeClass)
		case "life":
			key = heapprof.LifeLabel(s.LifeExp)
			order = int64(s.LifeExp)
		default:
			return nil, fmt.Errorf("gwp: breakdown axis %q (want workload, class or life)", by)
		}
		a := m[key]
		if a == nil {
			a = &agg{order: order, row: BreakdownRow{Key: key}}
			m[key] = a
		}
		a.row.Samples += s.Samples
		a.row.Objects += s.Objects
		a.row.Bytes += s.Bytes
	}
	aggs := make([]*agg, 0, len(m))
	for _, a := range m {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].order != aggs[j].order {
			return aggs[i].order < aggs[j].order
		}
		return aggs[i].row.Key < aggs[j].row.Key
	})
	rows := make([]BreakdownRow, len(aggs))
	for i, a := range aggs {
		rows[i] = a.row
	}
	return rows, nil
}

// WriteBreakdown renders a breakdown as CSV.
func WriteBreakdown(w io.Writer, rows []BreakdownRow) error {
	if _, err := fmt.Fprintln(w, "key,samples,objects,bytes"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s\n", r.Key, r.Samples, fmtF(r.Objects), fmtF(r.Bytes)); err != nil {
			return err
		}
	}
	return nil
}

// TrendRow is one window's quantile summary of a scalar distribution.
type TrendRow struct {
	ID      string
	EndTick int64
	Count   float64
	P25     float64
	P50     float64
	P90     float64
	P99     float64
	Max     float64
}

// Trend summarizes one per-machine scalar distribution (a SketchNames
// entry) across windows. Windows without sketches (externally built
// record-less ones) are skipped.
func Trend(wins []*Window, metric string) ([]TrendRow, error) {
	idx := -1
	for i, name := range SketchNames {
		if name == metric {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("gwp: unknown metric %q (want one of %s)", metric, strings.Join(SketchNames, ", "))
	}
	var rows []TrendRow
	for _, win := range wins {
		if len(win.Sketches) != len(SketchNames) {
			continue
		}
		sk := win.Sketches[idx]
		rows = append(rows, TrendRow{
			ID: win.Meta.ID, EndTick: win.Meta.EndTick,
			Count: sk.Count(),
			P25:   sk.Quantile(0.25), P50: sk.Quantile(0.50),
			P90: sk.Quantile(0.90), P99: sk.Quantile(0.99),
			Max: sk.Max(),
		})
	}
	return rows, nil
}

// WriteTrend renders a scalar trend as CSV.
func WriteTrend(w io.Writer, rows []TrendRow) error {
	if _, err := fmt.Fprintln(w, "id,end_tick,count,p25,p50,p90,p99,max"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s,%s,%s,%s\n",
			r.ID, r.EndTick, fmtF(r.Count), fmtF(r.P25), fmtF(r.P50),
			fmtF(r.P90), fmtF(r.P99), fmtF(r.Max)); err != nil {
			return err
		}
	}
	return nil
}

// FlattenWindow flattens a window into profdiff metrics: the three
// profile views (arm label and design stripped, so windows from
// different arms or design points diff against each other site by
// site), the Fig. 11 terms, and the capture coverage.
func FlattenWindow(win *Window) profdiff.Metrics {
	profiles := make([]heapprof.Profile, len(win.Profiles))
	copy(profiles, win.Profiles)
	for i := range profiles {
		profiles[i].Label = ""
		profiles[i].Design = ""
	}
	m := profdiff.FlattenProfiles(profiles...)
	f := FragTrend([]*Window{win})[0]
	for i, name := range fragCols {
		m["frag/"+name+".bytes"] = float64(f.Frag[i])
	}
	m["meta/machines"] = float64(win.Meta.Machines)
	return m
}

// WriteMetaList renders window metadata as a table (the list command).
func WriteMetaList(w io.Writer, metas []WindowMeta) error {
	if _, err := fmt.Fprintf(w, "%-14s %5s %10s %10s %9s %8s  %s\n",
		"id", "tier", "start_tick", "end_tick", "machines", "sources", "design"); err != nil {
		return err
	}
	for _, m := range metas {
		if _, err := fmt.Fprintf(w, "%-14s %5s %10d %10d %9d %8d  %s\n",
			m.ID, TierName(m.Tier), m.StartTick, m.EndTick, m.Machines, m.Sources, m.Design); err != nil {
			return err
		}
	}
	return nil
}
