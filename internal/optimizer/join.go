package optimizer

import (
	"math"
	"math/bits"

	"aim/internal/queryinfo"
)

// joinResult is the outcome of the join-order search: a left-deep order of
// instance ordinals with the chosen access path for each position.
type joinResult struct {
	order []int
	paths []accessPath
	cost  float64
	rows  float64 // estimated output cardinality of the join
}

// dpLimit caps the table count for exhaustive (Selinger) enumeration;
// larger joins fall back to a greedy ordering.
const dpLimit = 8

// instSet is a set of FROM-clause instance ordinals: a bit each for the first
// 64 — all the DP indexes by — and a bool each past them, so the greedy search
// still orders the joins it always could.
type instSet struct {
	bits uint64
	more []bool // ordinal 64+i; nil until one is in the set
}

func (s instSet) has(i int) bool {
	if i < 64 {
		return s.bits&(1<<i) != 0
	}
	return i-64 < len(s.more) && s.more[i-64]
}

func (s instSet) empty() bool { return s.bits == 0 && s.more == nil }

// with returns s plus i; s is not changed.
func (s instSet) with(i int) instSet {
	if i < 64 {
		s.bits |= 1 << i
		return s
	}
	more := make([]bool, max(len(s.more), i-63))
	copy(more, s.more)
	more[i-64] = true
	s.more = more
	return s
}

// move is one step a join-order search can take: read instance inst next,
// after the instances in rest. Everything about it that no parameter value
// changes is here.
type move struct {
	inst  int
	rest  instSet
	skels []*pathSkel
	// edges are the join edges (ordinals in Info.JoinEdges) from inst into
	// rest; opaque counts the multi-instance non-join conjuncts that become
	// evaluable with this move. Both scale the joined cardinality.
	edges  []int
	opaque int
}

func (p *prepared) newMove(inst int, rest instSet) move {
	m := move{inst: inst, rest: rest, skels: p.ctxs[inst].skeletons(rest)}
	for i, e := range p.info.JoinEdges {
		if other, _, _, ok := e.Other(inst); ok && rest.has(other) {
			m.edges = append(m.edges, i)
		}
	}
	for _, cj := range p.info.Conjuncts {
		if cj.Join != nil || cj.Atom != nil || len(cj.Instances) < 2 {
			continue
		}
		appliesNow, allPlaced := false, true
		for _, i := range cj.Instances {
			if i == inst {
				appliesNow = true
			} else if !rest.has(i) {
				allPlaced = false
			}
		}
		if appliesNow && allPlaced {
			m.opaque++
		}
	}
	return m
}

// joinMoves lays out, in visiting order, the moves the join-order search will
// price: the Selinger DP's connected expansions (dp) up to dpLimit instances,
// the FROM order when straight or when the DP cannot reach every instance,
// and nothing beyond dpLimit — the greedy search's moves depend on its own
// choices.
func (p *prepared) joinMoves(straight bool) (moves []move, dp bool) {
	n := len(p.ctxs)
	fromOrder := func() []move {
		moves := make([]move, n)
		var rest instSet
		for i := range moves {
			moves[i] = p.newMove(i, rest)
			rest = rest.with(i)
		}
		return moves
	}
	if straight {
		return fromOrder(), false
	}
	if n > dpLimit {
		return nil, false
	}
	neighbors := p.info.JoinNeighbors()
	connectedTo := func(mask uint64, inst int) bool {
		for other := range neighbors[inst] {
			if mask&(1<<other) != 0 {
				return true
			}
		}
		return false
	}
	reached := make([]bool, 1<<n)
	for size := 1; size <= n; size++ {
		for mask := uint64(1); mask < 1<<n; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			for inst := 0; inst < n; inst++ {
				if mask&(1<<inst) == 0 {
					continue
				}
				rest := mask &^ (1 << inst)
				if rest != 0 {
					if !reached[rest] {
						continue
					}
					// Prefer connected expansions: skip cartesian products
					// unless no instance of mask outside rest has a join edge
					// into it.
					if !connectedTo(rest, inst) && anyConnected(rest, mask, neighbors) {
						continue
					}
				}
				moves = append(moves, p.newMove(inst, instSet{bits: rest}))
				reached[mask] = true
			}
		}
	}
	if !reached[1<<n-1] {
		return fromOrder(), false // shouldn't happen
	}
	return moves, true
}

// anyConnected reports whether any instance outside rest (but inside mask)
// has a join edge into rest — i.e. a connected expansion exists.
func anyConnected(rest, mask uint64, neighbors []map[int]bool) bool {
	for inst := range neighbors {
		if mask&(1<<inst) == 0 || rest&(1<<inst) != 0 {
			continue
		}
		for other := range neighbors[inst] {
			if rest&(1<<other) != 0 {
				return true
			}
		}
	}
	return false
}

// searchJoinOrder picks a join order and access paths.
func (c *chooser) searchJoinOrder() *joinResult {
	n := len(c.p.ctxs)
	c.o.mJoinTables.Observe(float64(n))
	switch {
	case c.p.sel.StraightJoin:
		return c.costOrder()
	case n <= dpLimit:
		c.o.mJoinDP.Inc()
		if !c.p.dp {
			return c.costOrder()
		}
		return c.searchDP()
	}
	c.o.mJoinGreedy.Inc()
	return c.searchGreedy()
}

// costOrder evaluates the one order the moves spell out.
func (c *chooser) costOrder() *joinResult {
	res := &joinResult{}
	outer := 1.0
	for i := range c.p.moves {
		m := &c.p.moves[i]
		best := c.best(m.skels)
		res.order = append(res.order, m.inst)
		res.paths = append(res.paths, best)
		res.cost += outer * best.probeCost
		outer = c.joinedRows(m, outer, best)
	}
	res.rows = outer
	return res
}

// joinedRows propagates cardinality after the move.
func (c *chooser) joinedRows(m *move, outer float64, path accessPath) float64 {
	rows := outer * path.outRows
	for _, e := range m.edges {
		rows *= c.sel[c.p.atoms+e]
	}
	// Opaque multi-instance conjuncts that become evaluable now.
	for i := 0; i < m.opaque; i++ {
		rows *= defaultConjunctSel
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// searchDP runs Selinger-style dynamic programming over instance subsets:
// per subset, the cheapest move into it.
func (c *chooser) searchDP() *joinResult {
	n := len(c.p.ctxs)
	type state struct {
		cost, rows float64
		inst       int
		path       accessPath
	}
	states := make([]state, 1<<n)
	states[0].rows = 1
	for i := range c.p.moves {
		m := &c.p.moves[i]
		prev, st := &states[m.rest.bits], &states[m.rest.bits|1<<m.inst]
		ap := c.best(m.skels)
		cost := prev.cost + prev.rows*ap.probeCost
		if st.path.pathSkel != nil && cost >= st.cost {
			continue
		}
		*st = state{cost: cost, rows: c.joinedRows(m, prev.rows, ap), inst: m.inst, path: ap}
	}
	final := &states[1<<n-1]
	res := &joinResult{order: make([]int, n), paths: make([]accessPath, n), cost: final.cost, rows: final.rows}
	for mask, i := uint64(1)<<n-1, n-1; i >= 0; i-- {
		st := &states[mask]
		res.order[i], res.paths[i] = st.inst, st.path
		mask &^= 1 << st.inst
	}
	return res
}

// searchGreedy orders tables by repeatedly appending the cheapest next step.
func (c *chooser) searchGreedy() *joinResult {
	n := len(c.p.ctxs)
	res := &joinResult{}
	var placed instSet
	outer := 1.0
	for len(res.order) < n {
		bestCost := math.Inf(1)
		var bestMove move
		var bestAP accessPath
		for inst := 0; inst < n; inst++ {
			if placed.has(inst) {
				continue
			}
			m := c.p.newMove(inst, placed)
			ap := c.best(m.skels)
			// Prefer connected expansions by penalizing cartesian steps.
			penalty := 1.0
			if len(res.order) > 0 && len(m.edges) == 0 {
				penalty = 1e6
			}
			if cost := outer * ap.probeCost * penalty; cost < bestCost {
				bestCost, bestMove, bestAP = cost, m, ap
			}
		}
		res.cost += outer * bestAP.probeCost
		outer = c.joinedRows(&bestMove, outer, bestAP)
		placed = placed.with(bestMove.inst)
		res.order = append(res.order, bestMove.inst)
		res.paths = append(res.paths, bestAP)
	}
	res.rows = outer
	return res
}

// allOnInstance reports whether every column is instance inst's.
func allOnInstance(cols []queryinfo.OrderColumn, inst int) bool {
	for _, c := range cols {
		if c.Instance != inst {
			return false
		}
	}
	return true
}
