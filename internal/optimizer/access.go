package optimizer

import (
	"strconv"
	"strings"

	"aim/internal/catalog"
	"aim/internal/queryinfo"
	"aim/internal/sqltypes"
	"aim/internal/stats"
)

// atom is one filter atom of a table instance with its slot in the
// chooser's selectivity table.
type atom struct {
	*queryinfo.Atom
	slot int
}

// eqSource is one way to bind an index column by equality: a constant atom
// or, when atom is nil, a join edge (its ordinal in Info.JoinEdges: this
// instance's column = an already-placed instance's column).
type eqSource struct {
	atom *atom
	edge int
}

// pathSkel is the parameter-independent half of one way to read a table
// instance: which key it walks, what binds it, what it covers and pushes
// down, how it is described. It is built once per prepare and shared by every
// execution; the chooser prices it into an accessPath.
type pathSkel struct {
	ctx      *instanceContext
	index    *catalog.Index // nil = clustered full/range access on the PK
	indexKey []string       // effective key columns (index cols, or PK cols)
	eq       []eqSource     // bindings for the leading key columns
	inAtom   *atom
	rng      *atom
	covering bool
	icp      []*atom
	// sorted / gOrder: as the first step of a plan, the path delivers rows in
	// the query's ORDER BY order / clustered by its GROUP BY columns.
	sorted, gOrder bool
	// desc renders the path for EXPLAIN-style output.
	desc string
	// used is {index.Name}, nil for clustered access: a one-step plan's
	// UsedIndexes, which every execution shares.
	used []string
}

// accessPath is a path skeleton priced under one execution's statistics and
// parameter values.
type accessPath struct {
	*pathSkel
	// rows is the table's row count.
	rows float64
	// entrySel is the fraction of the table's entries the scan visits.
	entrySel float64
	// lookupSel is the fraction requiring a PK lookup (after ICP).
	lookupSel float64
	// outSel is the fraction surviving all single-table predicates.
	outSel float64
	// probeCost is the modelled cost of one execution of this access.
	probeCost float64
	// outRows is table rows × outSel.
	outRows float64
}

func (sk *pathSkel) fullScan() bool {
	return sk.index == nil && len(sk.eq) == 0 && sk.rng == nil && sk.inAtom == nil
}

func (sk *pathSkel) render() string {
	table := sk.ctx.info.Layout.Instances[sk.ctx.inst].Alias
	switch {
	case sk.fullScan():
		return table + ": full scan"
	case sk.index == nil:
		return table + ": PK range (eq=" + strconv.Itoa(len(sk.eq)) + ")"
	default:
		kind := "ref"
		if sk.rng != nil || sk.inAtom != nil {
			kind = "range"
		}
		if sk.covering {
			kind += ",covering"
		}
		if len(sk.icp) > 0 {
			kind += ",icp"
		}
		return table + ": index " + sk.index.Name + " (" + kind + ") eq=" + strconv.Itoa(len(sk.eq))
	}
}

// instanceContext gathers everything needed to enumerate access paths for
// one table instance.
type instanceContext struct {
	info  *queryinfo.Info
	inst  int
	table *catalog.Table
	pk    []string
	// indexes is the visible configuration's indexes on this table.
	indexes []*catalog.Index
	// eqAtoms, inAtoms, rangeAtoms index single-table atoms by column.
	eqAtoms    map[string]*atom
	inAtoms    map[string]*atom
	rangeAtoms map[string]*atom
	allAtoms   []*atom
	// opaqueSel multiplies in non-atom single-instance conjunct defaults.
	opaqueSel float64
	// referenced columns of this instance (for covering checks).
	referenced []string
}

// newInstanceContext builds the context for instance inst; its atoms take the
// selectivity slots from firstSlot on.
func newInstanceContext(info *queryinfo.Info, inst int, config []*catalog.Index, firstSlot int) *instanceContext {
	c := &instanceContext{
		info:       info,
		inst:       inst,
		table:      info.Layout.Instances[inst].Table,
		eqAtoms:    map[string]*atom{},
		inAtoms:    map[string]*atom{},
		rangeAtoms: map[string]*atom{},
		opaqueSel:  1,
		referenced: info.Referenced[inst],
	}
	c.pk = c.table.PrimaryKeyNames()
	for _, ix := range config {
		if strings.EqualFold(ix.Table, c.table.Name) {
			c.indexes = append(c.indexes, ix)
		}
	}
	for _, qa := range info.FilterAtoms[inst] {
		a := &atom{Atom: qa, slot: firstSlot + len(c.allAtoms)}
		c.allAtoms = append(c.allAtoms, a)
		switch a.Op {
		case queryinfo.OpEq, queryinfo.OpNullSafeEq, queryinfo.OpIsNull:
			c.eqAtoms[a.Column] = a
		case queryinfo.OpIn:
			c.inAtoms[a.Column] = a
		case queryinfo.OpRange, queryinfo.OpLikePrefix:
			// Keep the more selective-looking bound when duplicated.
			if _, dup := c.rangeAtoms[a.Column]; !dup {
				c.rangeAtoms[a.Column] = a
			}
		}
	}
	for _, cj := range info.Conjuncts {
		if len(cj.Instances) == 1 && cj.Instances[0] == inst && cj.Atom != nil && cj.Atom.Op == queryinfo.OpOther {
			c.opaqueSel *= defaultConjunctSel
		}
	}
	return c
}

// joinEdgeFor returns the join edge binding col to an instance in placed (a
// bit per instance ordinal); the last such edge wins.
func (c *instanceContext) joinEdgeFor(col string, placed instSet) (edge int, ok bool) {
	for i := range c.info.JoinEdges {
		other, thisCol, _, touches := c.info.JoinEdges[i].Other(c.inst)
		if touches && thisCol == col && placed.has(other) {
			edge, ok = i, true
		}
	}
	return edge, ok
}

// skeletons builds every sensible access path skeleton for the instance,
// given the placed instances (for join-edge equality bindings): the full
// clustered scan, the PK prefix when bound, and each bound secondary index.
func (c *instanceContext) skeletons(placed instSet) []*pathSkel {
	// Full clustered scan is always available; the clustered tree has every
	// column.
	paths := []*pathSkel{c.finish(&pathSkel{indexKey: c.pk}, placed)}
	// PK-prefix access (eq/range on leading primary key columns).
	if sk := c.keyedSkel(nil, c.pk, placed); sk != nil {
		paths = append(paths, sk)
	}
	for _, ix := range c.indexes {
		if sk := c.keyedSkel(ix, ix.Columns, placed); sk != nil {
			paths = append(paths, sk)
		}
	}
	return paths
}

// keyedSkel binds the key columns of one index (or the PK). It returns nil
// when the index is unusable (no leading binding) — except that an unbound
// secondary index can still be useful for covering or ordered reads, which
// single-table planning adds via fullIndexSkel.
func (c *instanceContext) keyedSkel(ix *catalog.Index, keyCols []string, placed instSet) *pathSkel {
	sk := &pathSkel{index: ix, indexKey: keyCols}
	pos := 0
	for ; pos < len(keyCols); pos++ {
		col := strings.ToLower(keyCols[pos])
		if a, ok := c.eqAtoms[col]; ok {
			sk.eq = append(sk.eq, eqSource{atom: a})
			continue
		}
		if e, ok := c.joinEdgeFor(col, placed); ok {
			sk.eq = append(sk.eq, eqSource{edge: e})
			continue
		}
		break
	}
	if pos < len(keyCols) {
		col := strings.ToLower(keyCols[pos])
		if a, ok := c.inAtoms[col]; ok {
			sk.inAtom = a
		} else if a, ok := c.rangeAtoms[col]; ok {
			sk.rng = a
		}
	}
	if len(sk.eq) == 0 && sk.inAtom == nil && sk.rng == nil {
		return nil // no binding; the plain full-scan path already covers this
	}
	return c.finish(sk, placed)
}

// fullIndexSkel is an unbounded scan over a secondary index, useful only for
// covering or ordered reads.
func (c *instanceContext) fullIndexSkel(ix *catalog.Index) *pathSkel {
	return c.finish(&pathSkel{index: ix, indexKey: ix.Columns}, instSet{})
}

// finish computes covering, ICP, the ordering flags and the description.
func (c *instanceContext) finish(sk *pathSkel, placed instSet) *pathSkel {
	sk.ctx = c
	sk.covering = sk.index == nil || sk.index.Covers(c.table, c.referenced)
	if sk.index != nil {
		sk.used = []string{sk.index.Name}
		// ICP: atoms over index key + PK columns reduce PK lookups.
		for _, a := range c.allAtoms {
			if (sk.index.HasColumn(a.Column) || c.table.IsPrimaryKey(a.Column)) && !usedInBinding(sk, a) {
				sk.icp = append(sk.icp, a)
			}
		}
	}
	if placed.empty() {
		// Only a plan's first step can hand its order to ORDER BY / GROUP BY,
		// and only when every such column is this instance's.
		sk.sorted = allOnInstance(c.info.OrderBy, c.inst) && orderSatisfiedBy(sk, c.info)
		sk.gOrder = allOnInstance(c.info.GroupBy, c.inst) && groupOrderedBy(sk, c.info)
	}
	sk.desc = sk.render()
	return sk
}

func usedInBinding(sk *pathSkel, a *atom) bool {
	for _, e := range sk.eq {
		if e.atom == a {
			return true
		}
	}
	return sk.inAtom == a || sk.rng == a
}

// instStats is what the chooser reads fresh for one instance per execution.
type instStats struct {
	rows   float64
	outSel float64 // selectivity of all single-table predicates on the instance
	ts     *stats.TableStats
}

// chooser is the parameter-dependent half of planning one execution: the
// selectivity of every atom under the bound values and of every join edge,
// and the table statistics, each read once.
type chooser struct {
	o      *Optimizer
	p      *prepared
	params []sqltypes.Value
	sel    []float64 // by atom slot, then by join edge behind p.atoms
	inst   []instStats
}

func (o *Optimizer) newChooser(p *prepared, params []sqltypes.Value) *chooser {
	c := &chooser{o: o, p: p, params: params,
		sel:  make([]float64, p.atoms+len(p.info.JoinEdges)),
		inst: make([]instStats, len(p.ctxs))}
	for i, ctx := range p.ctxs {
		in := &c.inst[i]
		in.ts = o.Stats.TableStats(ctx.table.Name)
		in.rows = 1
		if in.ts != nil && in.ts.RowCount > 0 {
			in.rows = float64(in.ts.RowCount)
		}
		in.outSel = ctx.opaqueSel
		for _, a := range ctx.allAtoms {
			c.sel[a.slot] = atomSelectivity(a.Atom, in.ts, params)
			in.outSel *= c.sel[a.slot]
		}
	}
	for i, e := range p.info.JoinEdges {
		c.sel[p.atoms+i] = joinEdgeSelectivity(e, c.inst[e.LeftInstance].ts, c.inst[e.RightInstance].ts)
	}
	return c
}

// price computes the skeleton's selectivities and probe cost.
func (c *chooser) price(sk *pathSkel) accessPath {
	in := &c.inst[sk.ctx.inst]
	rows := in.rows
	ap := accessPath{pathSkel: sk, rows: rows, entrySel: 1, outSel: in.outSel, outRows: rows * in.outSel}
	if sk.fullScan() {
		ap.probeCost = rows*costRow + scanPages(rows)*costPage
		return ap
	}
	for _, e := range sk.eq {
		if e.atom != nil {
			ap.entrySel *= c.sel[e.atom.slot]
		} else {
			ap.entrySel *= c.sel[c.p.atoms+e.edge]
		}
	}
	ranges := 1.0
	if sk.inAtom != nil {
		ap.entrySel *= c.sel[sk.inAtom.slot]
		n := len(sk.inAtom.InValues)
		if n == 0 {
			n = defaultInCount
		}
		ranges = float64(n)
	} else if sk.rng != nil {
		ap.entrySel *= c.sel[sk.rng.slot]
	}
	if sk.index != nil {
		ap.lookupSel = ap.entrySel
		for _, a := range sk.icp {
			ap.lookupSel *= c.sel[a.slot]
		}
	}
	entries := rows * ap.entrySel
	height := treeHeight(rows)
	ap.probeCost = ranges*height*costPage + entries*costRow + scanPages(entries)*costPage
	if sk.index != nil && !sk.covering {
		lookups := rows * ap.lookupSel
		ap.probeCost += lookups * (height*costPage + costRow)
	}
	return ap
}

// best prices the skeletons and returns the cheapest probe.
func (c *chooser) best(skels []*pathSkel) accessPath {
	best := c.price(skels[0])
	for _, sk := range skels[1:] {
		if ap := c.price(sk); ap.probeCost < best.probeCost {
			best = ap
		}
	}
	return best
}

// treeHeight models the B+tree descent depth for a table of the given size.
func treeHeight(rows float64) float64 {
	h := 1.0
	for n := rows / entriesPerLeaf; n > 1; n /= entriesPerLeaf {
		h++
	}
	return h
}
