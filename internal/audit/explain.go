// Lineage reconstruction: given the flat journal, rebuild the causal chain
// candidate → rank → shadow verdict → adopt → revert for one index, resolve
// span IDs against an optional trace file, and render the why-lineage that
// `aimctl explain` prints.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Lineage is the reconstructed decision history of one index (identified by
// its canonical key). A candidate that never advanced has only the early
// records; an index that was adopted and later reverted has the full chain.
type Lineage struct {
	// Ref is the canonical index key the lineage was resolved to.
	Ref string
	// Names are the catalog index names seen for this key (usually one).
	Names []string
	// Candidates, Ranks, Shadows, Adopts, Reverts are the matching records
	// in journal order. Repeated tuning cycles append one entry per cycle.
	Candidates []*Record
	Ranks      []*Record
	Shadows    []*Record
	Adopts     []*Record
	Reverts    []*Record
	// Window is the latest EventWindow record preceding the first adoption
	// and WindowStatements the concrete statement IDs (wire trace IDs or
	// session#seq) in it that executed a query the index serves. Nil for a
	// journal written without a tuner (aimctl's one-shot run), which carries
	// no window records.
	Window           *Record
	WindowStatements []string
}

// Adopted reports whether the index was ever materialized.
func (l *Lineage) Adopted() bool { return len(l.Adopts) > 0 }

// Reverted reports whether the index was ever regression-reverted.
func (l *Lineage) Reverted() bool { return len(l.Reverts) > 0 }

// Complete reports whether the causal chain is closed: every adoption is
// preceded (in sequence order) by a candidate, a rank decision and an
// accepting shadow verdict for this index.
func (l *Lineage) Complete() bool {
	if !l.Adopted() {
		return false
	}
	adopt := l.Adopts[0]
	before := func(rs []*Record, pred func(*Record) bool) bool {
		for _, r := range rs {
			if r.Seq < adopt.Seq && pred(r) {
				return true
			}
		}
		return false
	}
	return before(l.Candidates, func(*Record) bool { return true }) &&
		before(l.Ranks, func(r *Record) bool { return r.Selected != nil && *r.Selected }) &&
		before(l.Shadows, func(r *Record) bool { return r.Verdict == "accepted" })
}

// matchRef reports whether a record belongs to the queried reference. A
// reference may be a canonical key "table(a,b)", a bare index name
// "aim_events_0a1b2c3d", or the "table.index" form.
func matchRef(r *Record, ref string) bool {
	if r.IndexKey == "" && r.Index == "" {
		return false
	}
	ref = strings.ToLower(strings.TrimSpace(ref))
	if strings.EqualFold(r.IndexKey, ref) || strings.EqualFold(r.Index, ref) {
		return true
	}
	if tbl, name, ok := strings.Cut(ref, "."); ok {
		return strings.EqualFold(r.Index, name) && strings.EqualFold(r.Table, tbl)
	}
	return false
}

// Explain resolves ref against the journal and rebuilds its lineage.
// Resolution is forgiving: the canonical key, the index name, or
// "table.index" all work. It fails with the known references when nothing
// matches, so a typo surfaces the valid choices.
func Explain(records []*Record, ref string) (*Lineage, error) {
	// Resolve ref to a canonical key first: name-based references must pull
	// in records of the same index that only carry the key.
	key := ""
	for _, r := range records {
		if matchRef(r, ref) {
			if r.IndexKey != "" {
				key = r.IndexKey
				break
			}
		}
	}
	if key == "" {
		refs := References(records)
		if len(refs) == 0 {
			return nil, fmt.Errorf("audit: journal has no index records")
		}
		return nil, fmt.Errorf("audit: no records for %q; journal knows: %s",
			ref, strings.Join(refs, ", "))
	}
	l := &Lineage{Ref: key}
	seenName := map[string]bool{}
	for _, r := range records {
		if !strings.EqualFold(r.IndexKey, key) && !matchRef(r, ref) {
			continue
		}
		if r.Index != "" && !seenName[r.Index] {
			seenName[r.Index] = true
			l.Names = append(l.Names, r.Index)
		}
		switch r.Event {
		case EventCandidate:
			l.Candidates = append(l.Candidates, r)
		case EventRank:
			l.Ranks = append(l.Ranks, r)
		case EventShadow:
			l.Shadows = append(l.Shadows, r)
		case EventAdopt:
			l.Adopts = append(l.Adopts, r)
		case EventRevert:
			l.Reverts = append(l.Reverts, r)
		}
	}
	l.Window, l.WindowStatements = windowStatements(records, l)
	return l, nil
}

// windowStatements resolves an adopted index back to the live statements
// that drove it: the candidate records name the normalized queries the index
// serves, the latest EventWindow before the adoption names the statements
// that executed each query in that window. Nil when the index was never
// adopted or the journal has no window records.
func windowStatements(records []*Record, l *Lineage) (*Record, []string) {
	if !l.Adopted() {
		return nil, nil
	}
	adopt := l.Adopts[0]
	serves := map[string]bool{}
	for _, c := range l.Candidates {
		if c.Seq < adopt.Seq {
			for _, src := range c.Sources {
				serves[src] = true
			}
		}
	}
	var win *Record
	for _, r := range records {
		if r.Event == EventWindow && r.Seq < adopt.Seq {
			win = r // journal order: the last match is the latest window
		}
	}
	if win == nil {
		return nil, nil
	}
	var out []string
	for _, wq := range win.Queries {
		if serves[wq.Query] {
			out = append(out, wq.Statements...)
		}
	}
	return win, out
}

// AdoptedThenReverted returns the sorted canonical keys of indexes whose
// journal shows an adoption followed (in sequence order) by a revert — the
// set whose full lineage the scenario suite reconstructs.
func AdoptedThenReverted(records []*Record) []string {
	adoptedAt := map[string]int64{}
	hit := map[string]bool{}
	for _, r := range records {
		if r.IndexKey == "" {
			continue
		}
		switch r.Event {
		case EventAdopt:
			if _, ok := adoptedAt[r.IndexKey]; !ok {
				adoptedAt[r.IndexKey] = r.Seq
			}
		case EventRevert:
			if seq, ok := adoptedAt[r.IndexKey]; ok && r.Seq > seq {
				hit[r.IndexKey] = true
			}
		}
	}
	out := make([]string, 0, len(hit))
	for k := range hit {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// References lists every distinct index reference in the journal (canonical
// keys, sorted) — the valid arguments to Explain.
func References(records []*Record) []string {
	seen := map[string]bool{}
	for _, r := range records {
		if r.IndexKey != "" && !seen[r.IndexKey] {
			seen[r.IndexKey] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SpanInfo is one span parsed from a -trace-out file.
type SpanInfo struct {
	Name    string  `json:"name"`
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	StartUS int64   `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// ParseTrace reads a JSON-lines span trace (the -trace-out format) into a
// span-ID index, for resolving journal records to the phases that wrote
// them.
func ParseTrace(r io.Reader) (map[uint64]SpanInfo, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	out := map[uint64]SpanInfo{}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var si SpanInfo
		if err := json.Unmarshal(sc.Bytes(), &si); err != nil {
			continue // tolerate foreign or truncated lines
		}
		if si.ID != 0 {
			out[si.ID] = si
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("audit: trace: %v", err)
	}
	return out, nil
}

// Render writes the human-readable why-lineage. spans may be nil; when
// given, each step is annotated with the phase span that produced it.
func (l *Lineage) Render(w io.Writer, spans map[uint64]SpanInfo) {
	name := l.Ref
	if len(l.Names) > 0 {
		name = l.Names[0] + " (" + l.Ref + ")"
	}
	fmt.Fprintf(w, "index %s\n", name)
	switch {
	case l.Reverted():
		fmt.Fprintf(w, "status: adopted, then regression-reverted\n")
	case l.Adopted():
		fmt.Fprintf(w, "status: adopted\n")
	case len(l.Ranks) > 0:
		fmt.Fprintf(w, "status: candidate, not adopted\n")
	default:
		fmt.Fprintf(w, "status: candidate generated, never ranked\n")
	}

	annot := func(r *Record) string {
		if r.SpanID == 0 {
			return ""
		}
		if si, ok := spans[r.SpanID]; ok {
			return fmt.Sprintf("  [span %d %s]", r.SpanID, si.Name)
		}
		return fmt.Sprintf("  [span %d]", r.SpanID)
	}
	for _, r := range l.Candidates {
		fmt.Fprintf(w, "#%-4d candidate    from %s; serves %s%s\n",
			r.Seq, r.PartialOrder, strings.Join(r.Sources, " | "), annot(r))
	}
	for _, r := range l.Ranks {
		verdictWord := "cut"
		if r.Selected != nil && *r.Selected {
			verdictWord = "kept"
		}
		budget := "unlimited budget"
		if r.BudgetBytes > 0 {
			budget = fmt.Sprintf("budget %d/%d bytes used", r.BudgetUsedBytes, r.BudgetBytes)
		}
		fmt.Fprintf(w, "#%-4d rank         gain %.6fs cpu/window, maintenance %.6fs, size %d bytes -> %s (%s, %s)%s\n",
			r.Seq, r.GainCPU, r.MaintenanceCPU, r.SizeBytes, verdictWord, r.Decision, budget, annot(r))
	}
	for _, r := range l.Shadows {
		fmt.Fprintf(w, "#%-4d shadow       %s [%s]: %s (%d queries compared, %d replays)%s\n",
			r.Seq, r.Verdict, r.ReasonCode, r.Reason, r.QueriesCompared, r.Replays, annot(r))
	}
	for _, r := range l.Adopts {
		fmt.Fprintf(w, "#%-4d adopt        materialized as %s%s\n", r.Seq, r.Index, annot(r))
	}
	if len(l.WindowStatements) > 0 {
		fmt.Fprintf(w, "      driven by    live statements %s%s\n", strings.Join(l.WindowStatements, ", "), annot(l.Window))
	}
	for _, r := range l.Reverts {
		fmt.Fprintf(w, "#%-4d revert       %s [%s] regressed %.6fs -> %.6fs cpu_avg; index dropped%s\n",
			r.Seq, r.Query, r.ReasonCode, r.BeforeCPU, r.AfterCPU, annot(r))
	}
	if l.Adopted() && !l.Complete() {
		fmt.Fprintf(w, "warning: causal chain incomplete (adoption without candidate/rank/accepting-shadow records)\n")
	}
}
