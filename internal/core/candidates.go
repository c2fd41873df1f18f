package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// Generator turns workload queries into candidate partial orders, following
// Algorithms 2-7 of the paper.
type Generator struct {
	DB *engine.DB
	// J is the join parameter: tables joined with more than J others are
	// not exhaustively explored (Algorithm 3).
	J int
	// EnableCovering allows covering-mode candidates (TryCoveringIndex).
	EnableCovering bool
	// SeekThreshold is the estimated PK-lookup count above which a covering
	// index is worth its extra storage (§III-D); "high for fast storage
	// media such as SSDs".
	SeekThreshold float64
	// DisableMerging skips the §III-E partial-order merge fixpoint
	// (ablation knob: each query keeps only its own candidates).
	DisableMerging bool
	// ArbitraryRangeColumn skips the dataless-index probe of Algorithm 5
	// and takes the first range column instead (ablation knob).
	ArbitraryRangeColumn bool
	// Parallelism bounds the per-query generation fan-out (0 = GOMAXPROCS).
	Parallelism int

	// span is the advisor's "advisor/generate" span (nil when tracing is
	// off); GenerateCandidates nests its queries/merge phases under it.
	span *obs.Span
	// Probe counters, resolved once per GenerateCandidates call before the
	// fan-out (written once, then only read concurrently). Nil-safe.
	mIPPProbes      *obs.Counter
	mCoveringProbes *obs.Counter
}

// boundSelect reconstructs an executable SELECT for a normalized query by
// binding a sampled parameter set. It returns nil for non-SELECTs or when
// binding fails.
func boundSelect(q *workload.QueryStats) *sqlparser.Select {
	sel, ok := q.Stmt.(*sqlparser.Select)
	if !ok {
		return nil
	}
	if len(q.SampleParams) == 0 {
		return sel
	}
	bound, err := sqlparser.Bind(sel, q.SampleParams[0])
	if err != nil {
		return sel
	}
	return bound.(*sqlparser.Select)
}

// GenerateCandidates implements Algorithm 2: per query, decide the covering
// mode, generate partial orders from the selection, group-by and order-by
// structure, then merge them to a fixpoint.
func (g *Generator) GenerateCandidates(queries []*workload.QueryStats) []*PartialOrder {
	// Per-query generation (which probes the what-if optimizer for covering
	// decisions and range-column selection) fans out over the worker pool;
	// each query's partial orders land in its own slot and are concatenated
	// in workload order, so the merged pool is identical at any pool size.
	reg := g.DB.ObsRegistry()
	g.mIPPProbes = reg.Counter("core.ipp_probes")
	g.mCoveringProbes = reg.Counter("core.covering_probes")
	qSpan := g.span.Child("queries")
	perQ := make([][]*PartialOrder, len(queries))
	pool.ForEach(pool.Workers(g.Parallelism), len(queries), func(qi int) {
		q := queries[qi]
		if q.IsDML() {
			return
		}
		sel := boundSelect(q)
		if sel == nil {
			return
		}
		info, err := queryinfo.Analyze(sel, g.DB.Schema)
		if err != nil {
			return // e.g. table since dropped
		}
		mode := g.TryCoveringIndex(sel, info)
		src := Source{Normalized: q.Normalized, Covering: mode}
		var out []*PartialOrder
		out = append(out, g.forSelection(sel, info, mode, src)...)
		out = append(out, g.forGroupBy(sel, info, mode, src)...)
		out = append(out, g.forOrderBy(sel, info, mode, src)...)
		perQ[qi] = out
	})
	qSpan.End()
	var pos []*PartialOrder
	for _, qpos := range perQ {
		pos = append(pos, qpos...)
	}
	mSpan := g.span.Child("merge")
	defer mSpan.End()
	if g.DisableMerging {
		return dedupePartialOrders(pos)
	}
	return MergePartialOrders(pos)
}

// dedupePartialOrders collapses identical orders without any merging.
func dedupePartialOrders(pos []*PartialOrder) []*PartialOrder {
	seen := map[string]*PartialOrder{}
	var out []*PartialOrder
	for _, po := range pos {
		k := po.Key()
		if existing, ok := seen[k]; ok {
			existing.Sources = mergeSources(existing.Sources, po.Sources)
			continue
		}
		seen[k] = po
		out = append(out, po)
	}
	return out
}

// TryCoveringIndex decides whether covering candidates should be generated
// for a query (§III-D): selectivity cannot be improved further (the current
// best plan already binds every IPP column) yet the plan still performs
// many primary-key lookups.
func (g *Generator) TryCoveringIndex(sel *sqlparser.Select, info *queryinfo.Info) bool {
	if !g.EnableCovering {
		return false
	}
	g.mCoveringProbes.Inc()
	est, err := g.DB.WhatIf.EstimateSelect(sel, nil)
	if err != nil {
		return false
	}
	for _, u := range est.Used {
		if u.Index == nil || u.Covering {
			continue
		}
		if u.EstLookups < g.SeekThreshold {
			continue
		}
		// "Not possible to improve selectivity further": every IPP atom
		// column on this instance is already bound in the eq prefix.
		ippCols := map[string]bool{}
		for _, a := range info.FilterAtoms[u.Instance] {
			if a.Op.IsIPP() {
				ippCols[a.Column] = true
			}
		}
		if u.EqLen >= len(ippCols) {
			return true
		}
	}
	return false
}

// factorAtoms classifies the atoms of one DNF factor per table instance.
func factorAtoms(info *queryinfo.Info, factor []sqlparser.Expr) map[int][]*queryinfo.Atom {
	out := map[int][]*queryinfo.Atom{}
	for _, e := range factor {
		insts := map[int]bool{}
		bad := false
		for _, c := range sqlparser.ColumnsIn(e) {
			off, err := info.Layout.Resolve(c.Table, c.Column)
			if err != nil {
				bad = true
				break
			}
			insts[info.Layout.InstanceForOffset(off)] = true
		}
		if bad || len(insts) != 1 {
			continue
		}
		var inst int
		for i := range insts {
			inst = i
		}
		out[inst] = append(out[inst], queryinfo.ClassifyAtom(e, info.Layout, inst))
	}
	return out
}

// dnfFactors returns the DNF factorization of the WHERE clause, or a single
// empty factor when there is no WHERE (so covering loops still run once).
func dnfFactors(sel *sqlparser.Select) [][]sqlparser.Expr {
	if sel.Where == nil {
		return [][]sqlparser.Expr{nil}
	}
	return queryinfo.DNF(sel.Where)
}

// joinedTablesPowerset implements Algorithm 3: the power set of tables that
// share a join predicate with instance t, or {∅} when t joins with more
// than J tables.
func (g *Generator) joinedTablesPowerset(info *queryinfo.Info, t int) []map[int]bool {
	var neighbors []int
	for other := range info.JoinNeighbors()[t] {
		neighbors = append(neighbors, other)
	}
	sort.Ints(neighbors)
	if len(neighbors) > g.J {
		neighbors = nil
	}
	out := []map[int]bool{{}}
	for _, n := range neighbors {
		grown := make([]map[int]bool, 0, len(out)*2)
		for _, s := range out {
			with := map[int]bool{n: true}
			for k := range s {
				with[k] = true
			}
			grown = append(grown, s, with)
		}
		out = grown
	}
	return out
}

// ippSplit partitions a factor's atoms for instance t into index prefix
// predicate columns and the remaining (range-scannable or opaque) columns.
func ippSplit(atoms []*queryinfo.Atom) (ipp []string, rsp []*queryinfo.Atom) {
	seenIPP := map[string]bool{}
	seenRSP := map[string]bool{}
	for _, a := range atoms {
		if a.Column == "" {
			continue
		}
		if a.Op.IsIPP() {
			if !seenIPP[a.Column] {
				seenIPP[a.Column] = true
				ipp = append(ipp, a.Column)
			}
		} else if !seenRSP[a.Column] {
			seenRSP[a.Column] = true
			rsp = append(rsp, a)
		}
	}
	// Columns that appear both as IPP and range keep only the IPP role.
	filtered := rsp[:0]
	for _, a := range rsp {
		if !seenIPP[a.Column] {
			filtered = append(filtered, a)
		}
	}
	return ipp, filtered
}

// selectRangeColumn implements line 6 of Algorithm 5: among the non-IPP
// columns, pick the one whose dataless index <C_IPP, {c}> yields the lowest
// estimated cost for the query — i.e. the most selective atomic predicate.
func (g *Generator) selectRangeColumn(sel *sqlparser.Select, table string, ipp []string, rsp []*queryinfo.Atom) string {
	if len(rsp) == 0 {
		return ""
	}
	if len(rsp) == 1 || g.ArbitraryRangeColumn {
		return rsp[0].Column
	}
	bestCol := ""
	bestCost := 0.0
	for _, a := range rsp {
		cols := append(append([]string(nil), ipp...), a.Column)
		hypo := &catalog.Index{
			Name: "dataless_probe", Table: table, Columns: cols, Hypothetical: true,
		}
		g.mIPPProbes.Inc()
		est, err := g.DB.WhatIf.EstimateSelectConfig(sel, []*catalog.Index{hypo})
		if err != nil {
			continue
		}
		if bestCol == "" || est.Cost < bestCost {
			bestCol, bestCost = a.Column, est.Cost
		}
	}
	if bestCol == "" {
		bestCol = rsp[0].Column
	}
	return bestCol
}

// forSelection implements Algorithm 4 (selection / join candidates).
func (g *Generator) forSelection(sel *sqlparser.Select, info *queryinfo.Info, covering bool, src Source) []*PartialOrder {
	var out []*PartialOrder
	factors := dnfFactors(sel)
	perFactorAtoms := make([]map[int][]*queryinfo.Atom, len(factors))
	for i, f := range factors {
		perFactorAtoms[i] = factorAtoms(info, f)
	}
	for t := range info.Layout.Instances {
		table := info.Layout.Instances[t].Table.Name
		for _, S := range g.joinedTablesPowerset(info, t) {
			cJ := info.JoinColumns(t, S)
			for fi := range factors {
				atoms := perFactorAtoms[fi][t]
				ipp, rsp := ippSplit(atoms)
				ippAll := unionCols(ipp, cJ)
				if len(ippAll) == 0 && len(rsp) == 0 {
					continue
				}
				lastCol := g.selectRangeColumn(sel, table, ippAll, rsp)
				parts := [][]string{ippAll}
				if lastCol != "" {
					parts = append(parts, []string{lastCol})
				}
				if covering {
					used := unionCols(ippAll, []string{lastCol})
					parts = append(parts, diffCols(info.Referenced[t], used))
				}
				po := NewPartialOrder(table, parts...)
				if po.Width() == 0 {
					continue
				}
				po.Sources = []Source{src}
				out = append(out, po)
			}
		}
	}
	return out
}

// forGroupBy implements Algorithm 6.
func (g *Generator) forGroupBy(sel *sqlparser.Select, info *queryinfo.Info, covering bool, src Source) []*PartialOrder {
	var out []*PartialOrder
	if len(info.GroupBy) == 0 {
		return nil
	}
	factors := dnfFactors(sel)
	perFactorAtoms := make([]map[int][]*queryinfo.Atom, len(factors))
	for i, f := range factors {
		perFactorAtoms[i] = factorAtoms(info, f)
	}
	for t := range info.Layout.Instances {
		var cG []string
		for _, gc := range info.GroupBy {
			if gc.Instance == t {
				cG = append(cG, gc.Column)
			}
		}
		if len(cG) == 0 {
			continue
		}
		table := info.Layout.Instances[t].Table.Name
		if !covering {
			po := NewPartialOrder(table, cG)
			po.Sources = []Source{src}
			out = append(out, po)
			continue
		}
		for _, S := range g.joinedTablesPowerset(info, t) {
			cJ := info.JoinColumns(t, S)
			for fi := range factors {
				ipp, _ := ippSplit(perFactorAtoms[fi][t])
				ippAll := unionCols(ipp, cJ)
				used := unionCols(ippAll, cG)
				parts := [][]string{ippAll, cG, diffCols(info.Referenced[t], used)}
				po := NewPartialOrder(table, parts...)
				if po.Width() == 0 {
					continue
				}
				po.Sources = []Source{src}
				out = append(out, po)
			}
		}
	}
	return out
}

// forOrderBy implements Algorithm 7. Only all-ascending orders generate
// candidates, since the engine scans indexes forward.
func (g *Generator) forOrderBy(sel *sqlparser.Select, info *queryinfo.Info, covering bool, src Source) []*PartialOrder {
	if len(info.OrderBy) == 0 || len(info.OrderBy) != len(sel.OrderBy) {
		return nil
	}
	for _, oc := range info.OrderBy {
		if oc.Desc {
			return nil
		}
	}
	// All order columns must live on one instance for a single-table index
	// to provide the order.
	t := info.OrderBy[0].Instance
	var cO []string
	for _, oc := range info.OrderBy {
		if oc.Instance != t {
			return nil
		}
		cO = append(cO, oc.Column)
	}
	table := info.Layout.Instances[t].Table.Name

	orderParts := func() [][]string {
		parts := make([][]string, len(cO))
		for i, c := range cO {
			parts[i] = []string{c}
		}
		return parts
	}

	var out []*PartialOrder
	if !covering {
		po := NewPartialOrder(table, orderParts()...)
		if po.Width() > 0 {
			po.Sources = []Source{src}
			out = append(out, po)
		}
		return out
	}
	factors := dnfFactors(sel)
	for _, S := range g.joinedTablesPowerset(info, t) {
		cJ := info.JoinColumns(t, S)
		for _, f := range factors {
			ipp, _ := ippSplit(factorAtoms(info, f)[t])
			ippAll := unionCols(ipp, cJ)
			parts := [][]string{ippAll}
			parts = append(parts, orderParts()...)
			used := unionCols(ippAll, cO)
			parts = append(parts, diffCols(info.Referenced[t], used))
			po := NewPartialOrder(table, parts...)
			if po.Width() == 0 {
				continue
			}
			po.Sources = []Source{src}
			out = append(out, po)
		}
	}
	return out
}

func unionCols(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range append(append([]string(nil), a...), b...) {
		lc := strings.ToLower(c)
		if lc != "" && !seen[lc] {
			seen[lc] = true
			out = append(out, lc)
		}
	}
	return out
}

func diffCols(a, b []string) []string {
	drop := map[string]bool{}
	for _, c := range b {
		drop[strings.ToLower(c)] = true
	}
	var out []string
	for _, c := range a {
		lc := strings.ToLower(c)
		if !drop[lc] {
			out = append(out, lc)
		}
	}
	return out
}

// Linearize implements GenerateCandidateIndexPerPO: pick one total order
// satisfying the partial order. Within each part, higher-NDV (more
// selective) columns come first; ties break alphabetically for determinism.
// maxWidth > 0 truncates the index to its leading columns.
func (g *Generator) Linearize(po *PartialOrder, maxWidth int) *catalog.Index {
	var cols []string
	for _, part := range po.Parts {
		ordered := append([]string(nil), part...)
		ts := g.DB.TableStats(po.Table)
		sort.SliceStable(ordered, func(i, j int) bool {
			if ts != nil {
				ci, cj := ts.Column(ordered[i]), ts.Column(ordered[j])
				if ci != nil && cj != nil && ci.NDV != cj.NDV {
					return ci.NDV > cj.NDV
				}
			}
			return ordered[i] < ordered[j]
		})
		cols = append(cols, ordered...)
	}
	if maxWidth > 0 && len(cols) > maxWidth {
		cols = cols[:maxWidth]
	}
	if len(cols) == 0 {
		return nil
	}
	// Drop candidates that are a prefix of the primary key: the clustered
	// tree already provides them.
	tbl := g.DB.Schema.Table(po.Table)
	if tbl != nil {
		pk := tbl.PrimaryKeyNames()
		if len(cols) <= len(pk) {
			isPrefix := true
			for i, c := range cols {
				if !strings.EqualFold(pk[i], c) {
					isPrefix = false
					break
				}
			}
			if isPrefix {
				return nil
			}
		}
	}
	h := fnv.New32a()
	h.Write([]byte(po.Table + ":" + strings.Join(cols, ",")))
	return &catalog.Index{
		Name:         fmt.Sprintf("aim_%s_%08x", po.Table, h.Sum32()),
		Table:        po.Table,
		Columns:      cols,
		Hypothetical: true,
		CreatedBy:    "aim",
	}
}
