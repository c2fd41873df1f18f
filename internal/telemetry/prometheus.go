// Prometheus text exposition for the obs registry. The output is the v0.0.4
// text format (# TYPE headers, cumulative _bucket{le="..."} histograms with
// _sum and _count) built from an obs.Snapshot, with no dependency on any
// Prometheus library. Families and series are emitted in sorted order and
// floats are formatted deterministically, so for a deterministic workload
// the exposition bytes are pinnable by golden tests. It is the one rendering
// of the registry: ParsePrometheus reads it back for `aimctl top` and the
// live scenario suite's per-round metrics.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"aim/internal/obs"
)

// SanitizeMetricName maps an obs metric name onto the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and dashes (the obs convention separators,
// e.g. "core.partial_orders" or "a.b-c") become underscores, as does any
// other illegal byte; a leading digit gains an underscore prefix.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float the way the Prometheus text format expects:
// shortest representation that round-trips, "+Inf" spelled explicitly.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WritePrometheus writes the snapshot as Prometheus text exposition.
// Counters export as counter families, gauges as gauge families, and both
// histograms and span timings as histogram families — spans under
// span_<name>_seconds so phase latencies keep their unit and stay
// distinguishable from value histograms.
func WritePrometheus(w io.Writer, snap *obs.Snapshot) {
	type family struct {
		name string
		kind string // counter|gauge|histogram
		val  int64
		hist obs.HistogramSnapshot
	}
	var fams []family
	for name, v := range snap.Counters {
		fams = append(fams, family{name: SanitizeMetricName(name), kind: "counter", val: v})
	}
	for name, v := range snap.Gauges {
		fams = append(fams, family{name: SanitizeMetricName(name), kind: "gauge", val: v})
	}
	for name, h := range snap.Histograms {
		fams = append(fams, family{name: SanitizeMetricName(name), kind: "histogram", hist: h})
	}
	for name, h := range snap.Spans {
		fams = append(fams, family{name: "span_" + SanitizeMetricName(name) + "_seconds", kind: "histogram", hist: h})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case "counter", "gauge":
			fmt.Fprintf(w, "%s %d\n", f.name, f.val)
		case "histogram":
			// The text format wants cumulative bucket counts; the snapshot
			// stores per-bucket counts in ascending bound order.
			var cum int64
			for _, b := range f.hist.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatFloat(b.UpperBound), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, f.hist.Count)
			fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(f.hist.Sum))
			fmt.Fprintf(w, "%s_count %d\n", f.name, f.hist.Count)
		}
	}
}

// ParsePrometheus reads an exposition written by WritePrometheus back into a
// snapshot: families named span_<name>_seconds become Spans[<name>], and
// cumulative buckets become per-bucket counts again. Names stay sanitized,
// so writing the result reproduces the input byte for byte. Comment lines
// other than # TYPE are skipped. An exposition whose cumulative buckets
// decrease, or whose le="+Inf" bucket differs from _count, is an error.
func ParsePrometheus(r io.Reader) (*obs.Snapshot, error) {
	snap := &obs.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
		Spans:      map[string]obs.HistogramSnapshot{},
	}
	var name, kind string
	var h obs.HistogramSnapshot
	var cum, inf int64
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ = strings.Cut(fam, " ")
			h, cum, inf = obs.HistogramSnapshot{}, 0, -1
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		var err error
		switch {
		case kind == "counter" && series == name:
			snap.Counters[name], err = strconv.ParseInt(val, 10, 64)
		case kind == "gauge" && series == name:
			snap.Gauges[name], err = strconv.ParseInt(val, 10, 64)
		case kind == "histogram" && series == name+`_bucket{le="+Inf"}`:
			inf, err = strconv.ParseInt(val, 10, 64)
		case kind == "histogram" && strings.HasPrefix(series, name+`_bucket{le="`):
			var bound float64
			var c int64
			le := strings.TrimSuffix(strings.TrimPrefix(series, name+`_bucket{le="`), `"}`)
			if bound, err = strconv.ParseFloat(le, 64); err == nil {
				c, err = strconv.ParseInt(val, 10, 64)
			}
			switch {
			case err != nil:
			case c < cum:
				err = fmt.Errorf("cumulative bucket %d below the previous %d", c, cum)
			case c > cum:
				h.Buckets = append(h.Buckets, obs.BucketCount{UpperBound: bound, Count: c - cum})
				cum = c
			}
		case kind == "histogram" && series == name+"_sum":
			h.Sum, err = strconv.ParseFloat(val, 64)
		case kind == "histogram" && series == name+"_count":
			if h.Count, err = strconv.ParseInt(val, 10, 64); err == nil && (inf != h.Count || cum > h.Count) {
				err = fmt.Errorf(`le="+Inf" bucket %d, last bucket %d, _count %d`, inf, cum, h.Count)
			}
			if span, ok := strings.CutPrefix(name, "span_"); ok && strings.HasSuffix(span, "_seconds") {
				snap.Spans[strings.TrimSuffix(span, "_seconds")] = h
			} else {
				snap.Histograms[name] = h
			}
		default:
			err = fmt.Errorf("series %q outside a %s family %q", series, kind, name)
		}
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %v", n, err)
		}
	}
	return snap, sc.Err()
}
