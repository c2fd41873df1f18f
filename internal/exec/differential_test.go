package exec

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// whereExpr parses a WHERE clause and returns its source expression, for
// plans that want both the compiled closure and the batch-compilable source.
func whereExpr(t testing.TB, where string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM x WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparser.Select).Where
}

// renderResult serializes a Result byte-exactly: every value through the
// order-preserving key encoding (so 1 vs 1.0 vs "1" render differently) plus
// the full Stats struct. Two results render equal iff rows, row order, and
// every physical counter match.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(hex.EncodeToString(sqltypes.EncodeKey(nil, r...)))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%+v\n", res.Stats)
	return b.String()
}

// runBothEngines executes the plan on the reference interpreter and on the
// batch driver, each with observability on and off, and requires all four
// results to be byte-identical. It returns the driver's result.
func runBothEngines(t testing.TB, store *storage.Store, p *Plan) *Result {
	t.Helper()
	var want string
	var out *Result
	for _, reference := range []bool{true, false} {
		for _, withObs := range []bool{false, true} {
			ex := New(store)
			if withObs {
				ex.SetObs(obs.NewRegistry())
			}
			run := ex.Run
			if reference {
				run = ex.runReference
			}
			res, err := run(p, nil)
			if err != nil {
				t.Fatalf("reference=%v obs=%v: %v", reference, withObs, err)
			}
			got := renderResult(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("engine divergence (reference=%v obs=%v)\n--- reference ---\n%s--- this run ---\n%s",
					reference, withObs, want, got)
			}
			out = res
		}
	}
	return out
}

// refOff resolves "col" or "alias.col" to its env offset.
func refOff(t testing.TB, l *Layout, ref string) int {
	t.Helper()
	qual, col, ok := strings.Cut(ref, ".")
	if !ok {
		qual, col = "", ref
	}
	off, err := l.Resolve(qual, col)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// vecOutputs builds direct-copy output specs (the batch projector fast path).
func vecOutputs(t testing.TB, l *Layout, refs ...string) []OutputSpec {
	t.Helper()
	out := make([]OutputSpec, len(refs))
	for i, r := range refs {
		out[i] = ColOutput(refOff(t, l, r))
	}
	return out
}

// TestEngineDifferential pins the determinism contract of the batch driver:
// for every supported single-step plan shape, Result rows and Stats counters
// are byte-identical to the reference interpreter's, with observability on or
// off (TestDriverDifferentialJoins covers pipelines and early stops). Cases
// cover both the vectorized predicate kernels (FilterSrc set, vectorizable)
// and the per-row closure fallback (no source expression, or a shape the
// batch compiler rejects).
func TestEngineDifferential(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "orders")

	filtered := func(step Step, where string, vectorizable bool) Step {
		step.Filter = compileWhere(t, l, where)
		if vectorizable {
			step.FilterSrc = whereExpr(t, where)
		}
		return step
	}
	nullLit := Literal(sqltypes.Null)
	loPaid := Literal(sqltypes.NewString("paid"))
	hiShipped := Literal(sqltypes.NewString("shipped"))

	cases := []struct {
		name string
		plan *Plan
	}{
		{"full-scan", &Plan{Layout: l,
			Steps:  []Step{{Instance: 0}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"full-scan-vec-filter", &Plan{Layout: l,
			Steps:  []Step{filtered(Step{Instance: 0}, "cust_id = 5 AND status != 'paid'", true)},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"full-scan-vec-or-not-between", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0},
				"(status BETWEEN 'paid' AND 'shipped' OR NOT (cust_id < 20)) AND status LIKE 'p%'", true)},
			Output: vecOutputs(t, l, "id", "status", "cust_id"), Limit: -1}},
		{"full-scan-vec-in-isnull", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0},
				"status IN ('paid', 'done') AND amount IS NOT NULL", true)},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"full-scan-fallback-arith", &Plan{Layout: l,
			// Arithmetic is not batch-compilable: exercises the closure fallback.
			Steps:  []Step{filtered(Step{Instance: 0}, "amount + 1 > 300", true)},
			Output: vecOutputs(t, l, "id", "amount"), Limit: -1}},
		{"full-scan-closure-only", &Plan{Layout: l,
			// No FilterSrc at all (hand-assembled plan): closure fallback.
			Steps:  []Step{filtered(Step{Instance: 0}, "status = 'done'", false)},
			Output: colOutput(t, l, "id"), Limit: -1}},
		{"index-eq", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5)), Literal(sqltypes.NewString("paid"))}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"index-eq-null-key", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{nullLit}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"index-prefix-scan", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(7))}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-inc-exc", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &loPaid, Hi: &hiShipped, LoInc: true, HiInc: false}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-exc-inc", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &loPaid, Hi: &hiShipped, LoInc: false, HiInc: true}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-null-bound", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &nullLit, LoInc: true}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"covering", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}, Covering: true}},
			Output: vecOutputs(t, l, "cust_id", "status", "id"), Limit: -1}},
		{"icp", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(4))},
				ICP:    compileWhere(t, l, "status = 'paid'"),
				ICPSrc: whereExpr(t, "status = 'paid'")}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"icp-plus-residual", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				ICP:    compileWhere(t, l, "status >= 'paid'"),
				ICPSrc: whereExpr(t, "status >= 'paid'")},
				"amount > 100", true)},
			Output: vecOutputs(t, l, "id", "status", "amount"), Limit: -1}},
		{"in-multirange", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				In: []KeySource{Literal(sqltypes.NewString("shipped")),
					Literal(sqltypes.NewString("paid")),
					Literal(sqltypes.NewString("paid")), nullLit}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"group-hash", &Plan{Layout: l,
			Steps:   []Step{filtered(Step{Instance: 0}, "cust_id < 30", true)},
			Grouped: true,
			GroupBy: []CompiledExpr{argExpr(t, l, "status")},
			Aggs: []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: argExpr(t, l, "amount")},
				{Func: AggMin, Arg: argExpr(t, l, "id")}, {Func: AggMax, Arg: argExpr(t, l, "id")},
				{Func: AggAvg, Arg: argExpr(t, l, "amount")}},
			Output: append([]OutputSpec{vecOutputs(t, l, "status")[0]},
				OutputSpec{Agg: 0}, OutputSpec{Agg: 1}, OutputSpec{Agg: 2},
				OutputSpec{Agg: 3}, OutputSpec{Agg: 4}),
			Limit: -1}},
		{"group-hash-fastpath", &Plan{Layout: l,
			// GroupByCols/ArgCol set (as the optimizer emits): exercises the
			// batch aggregation fast path against the closure-driven row path.
			Steps:       []Step{filtered(Step{Instance: 0}, "cust_id < 30", true)},
			Grouped:     true,
			GroupBy:     []CompiledExpr{argExpr(t, l, "status")},
			GroupByCols: []int{refOff(t, l, "status") + 1},
			Aggs: []AggSpec{{Func: AggCount},
				{Func: AggSum, Arg: argExpr(t, l, "amount"), ArgCol: refOff(t, l, "amount") + 1},
				{Func: AggMin, Arg: argExpr(t, l, "id"), ArgCol: refOff(t, l, "id") + 1},
				{Func: AggMax, Arg: argExpr(t, l, "id"), ArgCol: refOff(t, l, "id") + 1}},
			Output: append(vecOutputs(t, l, "status"),
				OutputSpec{Agg: 0}, OutputSpec{Agg: 1}, OutputSpec{Agg: 2}, OutputSpec{Agg: 3}),
			Limit: -1}},
		{"group-empty-input", &Plan{Layout: l,
			Steps:   []Step{filtered(Step{Instance: 0}, "cust_id = 9999", true)},
			Grouped: true,
			Aggs:    []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: argExpr(t, l, "amount")}},
			Output:  []OutputSpec{{Agg: 0}, {Agg: 1}},
			Limit:   -1}},
		{"group-empty-null-eqkey", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{nullLit}}},
			Grouped: true,
			Aggs:    []AggSpec{{Func: AggCount}},
			Output:  []OutputSpec{{Agg: 0}},
			Limit:   -1}},
		{"group-stream", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}}},
			Grouped: true, GroupOrdered: true,
			GroupBy: []CompiledExpr{argExpr(t, l, "status")},
			Aggs:    []AggSpec{{Func: AggCount}},
			Output:  append(vecOutputs(t, l, "status"), OutputSpec{Agg: 0}),
			Limit:   -1}},
		{"distinct-order-limit-offset", &Plan{Layout: l,
			Steps:    []Step{filtered(Step{Instance: 0}, "cust_id < 8", true)},
			Output:   vecOutputs(t, l, "status", "cust_id"),
			Distinct: true,
			OrderBy:  []OrderSpec{{Col: 1}, {Col: 0, Desc: true}},
			Limit:    5, Offset: 2}},
		{"order-satisfied", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}}},
			Output:         vecOutputs(t, l, "status", "id"),
			OrderBy:        []OrderSpec{{Col: 0}},
			OrderSatisfied: true,
			Limit:          -1}},
		{"hidden-tail", &Plan{Layout: l,
			Steps:      []Step{filtered(Step{Instance: 0}, "cust_id = 5", true)},
			Output:     vecOutputs(t, l, "status", "amount"),
			HiddenTail: 1,
			OrderBy:    []OrderSpec{{Col: 1, Desc: true}},
			Limit:      -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBothEngines(t, store, tc.plan)
		})
	}
}

// argExpr compiles a bare column reference as an aggregate/group argument.
func argExpr(t testing.TB, l *Layout, col string) CompiledExpr {
	t.Helper()
	off := refOff(t, l, col)
	return func(env []sqltypes.Value) (sqltypes.Value, error) { return env[off], nil }
}

// TestDistinctDedupesVisiblePrefixOnly is the regression test for DISTINCT
// interacting with hidden ORDER BY columns: SELECT DISTINCT status ... ORDER
// BY id must dedupe on status alone, not on (status, hidden id). The old
// pipeline deduped the full row, so every (status, id) pair was unique and
// all 400 rows survived.
func TestDistinctDedupesVisiblePrefixOnly(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout:     l,
		Steps:      []Step{{Instance: 0}},
		Output:     vecOutputs(t, l, "status", "id"),
		HiddenTail: 1,
		Distinct:   true,
		OrderBy:    []OrderSpec{{Col: 1}},
		Limit:      -1,
	}
	res := runBothEngines(t, store, p)
	if len(res.Rows) != 4 {
		t.Fatalf("DISTINCT status rows = %d, want 4", len(res.Rows))
	}
	// First occurrence wins, so the surviving hidden ids are 0..3 and the
	// sorted statuses follow insertion order of the status cycle.
	want := []string{"new", "paid", "shipped", "done"}
	for i, r := range res.Rows {
		if len(r) != 1 {
			t.Fatalf("hidden tail not trimmed: row %v", r)
		}
		if r[0].Str() != want[i] {
			t.Errorf("row %d = %q, want %q", i, r[0].Str(), want[i])
		}
	}
}

// TestScanBoundsContract pins the fixed scanBounds behavior: hiInc is the
// caller's real inclusivity (no 0xFF successor fabrication), prefix-only
// scans are inclusive on the prefix, and NULL range bounds mark the scan
// statically empty.
func TestScanBoundsContract(t *testing.T) {
	five := sqltypes.NewInt(5)
	paid := sqltypes.NewString("paid")
	base := sqltypes.EncodeKey(nil, five)

	ksPaid := Literal(paid)
	ksNull := Literal(sqltypes.Null)

	lo, hi, hiInc, empty := new(keyBuf).scanBounds([]sqltypes.Value{five}, &RangeSpec{Hi: &ksPaid, HiInc: true}, nil)
	if empty || !hiInc {
		t.Fatalf("inclusive hi: hiInc=%v empty=%v, want true/false", hiInc, empty)
	}
	wantHi := sqltypes.EncodeKey(append([]byte(nil), base...), paid)
	if string(hi) != string(wantHi) {
		t.Fatalf("hi = %x, want exact encoded bound %x (no successor byte)", hi, wantHi)
	}
	if string(lo) != string(base) {
		t.Fatalf("lo = %x, want prefix %x", lo, base)
	}

	_, _, hiInc, _ = new(keyBuf).scanBounds([]sqltypes.Value{five}, &RangeSpec{Hi: &ksPaid, HiInc: false}, nil)
	if hiInc {
		t.Fatal("exclusive hi reported inclusive")
	}

	lo, hi, hiInc, empty = new(keyBuf).scanBounds([]sqltypes.Value{five}, nil, nil)
	if empty || !hiInc || string(lo) != string(base) || string(hi) != string(base) {
		t.Fatalf("prefix-only scan: lo=%x hi=%x hiInc=%v empty=%v", lo, hi, hiInc, empty)
	}

	for _, rng := range []*RangeSpec{{Lo: &ksNull, LoInc: true}, {Hi: &ksNull, HiInc: true}} {
		if _, _, _, empty := new(keyBuf).scanBounds([]sqltypes.Value{five}, rng, nil); !empty {
			t.Fatalf("NULL bound %+v not marked empty", rng)
		}
	}
}

// FuzzExecScanOracle executes randomized range/IN/ICP index plans on the
// driver and the reference interpreter and checks the produced row SET
// (order-independent) against a full-scan-plus-filter oracle evaluating the
// equivalent WHERE clause — and checks row-order and Stats parity between
// driver and reference for each plan, and again under a random LIMIT/OFFSET
// (early stop; the oracle stays the independent check for the unlimited
// plans). Half the seeds put an outer customers step in front of the index
// step, whose ICP and filter then carry random atoms over the outer row's
// columns (the batch constants; customer 40's tier is NULL). It is the
// property-test half of the differential suite and runs in fuzzsmoke.
func FuzzExecScanOracle(f *testing.F) {
	store, schema := fixture(f)
	err := store.Table("customers").Insert(
		sqltypes.Row{sqltypes.NewInt(40), sqltypes.NewString("la"), sqltypes.Null}, nil)
	if err != nil {
		f.Fatal(err)
	}
	single := singleLayout(schema, "orders")
	joined := NewLayout([]Instance{
		{Alias: "c", Table: schema.Table("customers")},
		{Alias: "o", Table: schema.Table("orders")},
	})
	statuses := []string{"aaa", "done", "new", "paid", "shipped", "zzz"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	// Outer-referencing atoms, ? a random comparison operator. ICP atoms read
	// only the index and PK columns.
	icpAtoms := []string{"o.status ? c.city", "c.tier ? o.cust_id", "o.id ? c.id", "c.city ? o.status"}
	filterAtoms := []string{"o.amount ? c.tier", "c.id ? o.amount", "o.status ? c.city",
		"o.cust_id BETWEEN c.tier AND c.id", "c.city LIKE 's%'", "o.status NOT LIKE c.city",
		"c.tier IS NULL", "c.tier IN (0, 2)"}
	atom := func(rng *rand.Rand, atoms []string) string {
		return strings.ReplaceAll(atoms[rng.Intn(len(atoms))], "?", ops[rng.Intn(len(ops))])
	}

	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		cust := rng.Intn(45) // some values past the 0..39 domain
		step := Step{Instance: 0, IndexName: "o_cust_status",
			EqKeys: []KeySource{Literal(sqltypes.NewInt(int64(cust)))}}
		conds := []string{fmt.Sprintf("cust_id = %d", cust)}

		switch rng.Intn(4) {
		case 0: // prefix only
		case 1: // range on status, random bounds and inclusivity
			spec := &RangeSpec{LoInc: rng.Intn(2) == 0, HiInc: rng.Intn(2) == 0}
			if rng.Intn(3) > 0 {
				v := statuses[rng.Intn(len(statuses))]
				ks := Literal(sqltypes.NewString(v))
				spec.Lo = &ks
				op := ">"
				if spec.LoInc {
					op = ">="
				}
				conds = append(conds, fmt.Sprintf("status %s '%s'", op, v))
			}
			if rng.Intn(3) > 0 || spec.Lo == nil {
				v := statuses[rng.Intn(len(statuses))]
				ks := Literal(sqltypes.NewString(v))
				spec.Hi = &ks
				op := "<"
				if spec.HiInc {
					op = "<="
				}
				conds = append(conds, fmt.Sprintf("status %s '%s'", op, v))
			}
			step.Range = spec
		case 2: // IN multi-range with duplicates
			n := 1 + rng.Intn(3)
			var quoted []string
			for i := 0; i < n; i++ {
				v := statuses[rng.Intn(len(statuses))]
				step.In = append(step.In, Literal(sqltypes.NewString(v)))
				quoted = append(quoted, "'"+v+"'")
			}
			step.In = append(step.In, step.In[0]) // duplicate
			quoted = append(quoted, quoted[0])
			conds = append(conds, "status IN ("+strings.Join(quoted, ", ")+")")
		case 3: // full eq on both index columns
			v := statuses[rng.Intn(len(statuses))]
			step.EqKeys = append(step.EqKeys, Literal(sqltypes.NewString(v)))
			conds = append(conds, fmt.Sprintf("status = '%s'", v))
		}

		var icp, filter []string
		if rng.Intn(2) == 0 {
			icp = append(icp, fmt.Sprintf("status != '%s'", statuses[rng.Intn(len(statuses))]))
		}
		if rng.Intn(2) == 0 {
			filter = append(filter, fmt.Sprintf("amount <= %d", rng.Intn(700)))
		}
		// Drawn after the scan shape, so a seed's scan shape does not depend
		// on the dimensions below.
		limit, offset := int64(rng.Intn(14)), int64(rng.Intn(4))
		orderBy := rng.Intn(4) == 0 // an unsatisfied ORDER BY: no early stop, sort then cut

		l, outCols := single, []string{"id", "cust_id", "status", "amount"}
		var outer []Step
		if rng.Intn(2) == 0 {
			l, outCols = joined, []string{"c.id", "c.tier", "o.id", "o.cust_id", "o.status", "o.amount"}
			lo := rng.Intn(42)
			where := fmt.Sprintf("c.id BETWEEN %d AND %d", lo, lo+2)
			outer = []Step{{Instance: 0, Filter: compileWhere(t, l, where), FilterSrc: whereExpr(t, where)}}
			conds = append(conds, where)
			step.Instance = 1
			if rng.Intn(2) == 0 { // the probe key comes from the outer row
				step.EqKeys[0], conds[0] = SlotRef(refOff(t, l, "c.id")), "cust_id = c.id"
			}
			for n := rng.Intn(3); n > 0; n-- {
				icp = append(icp, atom(rng, icpAtoms))
			}
			for n := rng.Intn(3); n > 0; n-- {
				filter = append(filter, atom(rng, filterAtoms))
			}
		}
		if len(icp) > 0 {
			where := strings.Join(icp, " AND ")
			step.ICP, step.ICPSrc = compileWhere(t, l, where), whereExpr(t, where)
		}
		if len(filter) > 0 {
			where := strings.Join(filter, " AND ")
			step.Filter, step.FilterSrc = compileWhere(t, l, where), whereExpr(t, where)
		}
		conds = append(append(conds, icp...), filter...)

		indexPlan := &Plan{Layout: l, Steps: append(outer, step),
			Output: vecOutputs(t, l, outCols...), Limit: -1}
		where := strings.Join(conds, " AND ")
		last := Step{Instance: len(outer), Filter: compileWhere(t, l, where), FilterSrc: whereExpr(t, where)}
		oracleSteps := []Step{last}
		if len(outer) > 0 {
			oracleSteps = []Step{{Instance: 0}, last}
		}
		oraclePlan := &Plan{Layout: l, Steps: oracleSteps, Output: vecOutputs(t, l, outCols...), Limit: -1}

		limited := *indexPlan
		limited.Limit, limited.Offset = limit, offset
		if orderBy {
			limited.OrderBy = []OrderSpec{{Col: 3, Desc: true}}
		}
		runBothEngines(t, store, &limited)

		// Engine parity (rows, order, Stats) per plan; then set equality
		// between the index path and the oracle.
		got := runBothEngines(t, store, indexPlan)
		want := runBothEngines(t, store, oraclePlan)
		if gs, ws := sortedRowSet(got), sortedRowSet(want); gs != ws {
			t.Fatalf("index plan row set diverges from full-scan oracle\nWHERE %s\n--- index ---\n%s--- oracle ---\n%s",
				where, gs, ws)
		}
	})
}

func sortedRowSet(res *Result) string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = hex.EncodeToString(sqltypes.EncodeKey(nil, r...))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// joinFixture is a 3 000-order store (75 orders per customer, so every scan
// of interest spans more than one batch or more than one outer row) with the
// layout customers c → orders o → customers c2, plus one customer whose tier
// is NULL to drive a NULL join key.
func joinFixture(t testing.TB) (*storage.Store, *Layout) {
	t.Helper()
	store, schema := fixtureN(t, 3000)
	err := store.Table("customers").Insert(
		sqltypes.Row{sqltypes.NewInt(40), sqltypes.NewString("la"), sqltypes.Null}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return store, NewLayout([]Instance{
		{Alias: "c", Table: schema.Table("customers")},
		{Alias: "o", Table: schema.Table("orders")},
		{Alias: "c2", Table: schema.Table("customers")},
	})
}

// TestDriverDifferentialJoins holds the batch driver to the reference
// interpreter on the shapes that ran on the row loop alone before the driver
// took every plan: multi-step pipelines and early-stop targets.
func TestDriverDifferentialJoins(t *testing.T) {
	store, l := joinFixture(t)
	slot := func(ref string) KeySource { return SlotRef(refOff(t, l, ref)) }
	pred := func(where string) (CompiledExpr, sqlparser.Expr) {
		return compileWhere(t, l, where), whereExpr(t, where)
	}
	outer := Step{Instance: 0}
	outer.Filter, outer.FilterSrc = pred("c.id < 30")
	probe := Step{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{slot("c.id")}}
	back := Step{Instance: 2, EqKeys: []KeySource{slot("o.cust_id")}}
	with := func(s Step, edit func(*Step)) Step {
		edit(&s)
		return s
	}
	paid, done := Literal(sqltypes.NewString("paid")), Literal(sqltypes.NewString("done"))

	type shape struct {
		name string
		edit func(*Plan)
	}
	shapes := []shape{
		{"all", func(*Plan) {}},
		{"limit", func(p *Plan) { p.Limit = 7 }},
		{"limit-offset", func(p *Plan) { p.Limit, p.Offset = 7, 80 }}, // stops in the second outer row
		{"limit-over-batch", func(p *Plan) { p.Limit = batchSize + 400 }},
		{"grouped", func(p *Plan) {
			p.Grouped = true
			p.GroupBy = []CompiledExpr{p.Output[0].Expr}
			p.GroupByCols = []int{p.Output[0].col}
			p.Aggs = []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: p.Output[2].Expr, ArgCol: p.Output[2].col},
				{Func: AggMax, Arg: p.Output[1].Expr, ArgCol: p.Output[1].col}}
			p.Output = []OutputSpec{p.Output[0], {Agg: 0}, {Agg: 1}, {Agg: 2}}
		}},
		{"distinct", func(p *Plan) { p.Distinct, p.Output = true, p.Output[:1] }},
		{"order-unsatisfied", func(p *Plan) { p.OrderBy, p.Limit = []OrderSpec{{Col: 2, Desc: true}, {Col: 1}}, 5 }},
	}
	pipelines := []struct {
		name  string
		steps []Step
		out   []string
	}{
		{"join2", []Step{outer, probe}, []string{"c.city", "o.id", "o.amount"}},
		{"join3", []Step{outer, probe, back}, []string{"c2.city", "o.id", "o.amount"}},
	}
	for _, pl := range pipelines {
		for _, sh := range shapes {
			t.Run(pl.name+"-"+sh.name, func(t *testing.T) {
				p := &Plan{Layout: l, Steps: pl.steps, Output: vecOutputs(t, l, pl.out...), Limit: -1}
				sh.edit(p)
				if res := runBothEngines(t, store, p); len(res.Rows) == 0 {
					t.Fatal("shape produced no rows: the case checks nothing")
				}
			})
		}
	}

	probes := []struct {
		name  string
		steps []Step
		out   []string
		limit int64
	}{
		{"inner-filter-reads-outer-closure", []Step{outer, with(probe, func(s *Step) {
			s.Filter = compileWhere(t, l, "o.amount > c.tier * 1000 + c.id") // arithmetic: closure fallback
		})}, []string{"c.id", "o.id"}, -1},
		{"inner-filter-reads-outer-kernel", []Step{outer, with(probe, func(s *Step) {
			s.Filter, s.FilterSrc = pred("o.id > c.id AND o.status != c.city")
		})}, []string{"c.id", "o.id"}, 90},
		{"inner-covering", []Step{outer, with(probe, func(s *Step) { s.Covering = true })},
			[]string{"c.city", "o.cust_id", "o.status", "o.id", "o.amount"}, -1},
		{"inner-icp", []Step{outer, with(probe, func(s *Step) {
			s.ICP, s.ICPSrc = pred("o.status >= 'new' AND o.id > c.id")
			s.Filter, s.FilterSrc = pred("o.amount < 3000")
		})}, []string{"c.id", "o.id", "o.status"}, 100},
		{"inner-in-list", []Step{outer, with(probe, func(s *Step) {
			s.In = []KeySource{paid, done, paid, Literal(sqltypes.Null)}
		})}, []string{"c.id", "o.id", "o.status"}, -1},
		{"inner-range", []Step{outer, with(probe, func(s *Step) {
			s.Range = &RangeSpec{Lo: &done, Hi: &paid, LoInc: false, HiInc: true}
		})}, []string{"c.id", "o.id", "o.status"}, 200},
		{"null-join-key", []Step{{Instance: 0}, // tier is NULL for customer 40: its probe matches nothing
			{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{slot("c.tier")}}},
			[]string{"c.id", "o.id"}, -1},
		{"cross-product-limit", []Step{outer, {Instance: 1}}, []string{"c.id", "o.id"}, 3 * batchSize},
	}
	for _, tc := range probes {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Layout: l, Steps: tc.steps, Output: vecOutputs(t, l, tc.out...), Limit: tc.limit}
			if res := runBothEngines(t, store, p); len(res.Rows) == 0 {
				t.Fatal("shape produced no rows: the case checks nothing")
			}
		})
	}

	// Single-step early stops: inside the second range of a multi-range IN,
	// and past the first full batch of a clustered scan.
	single := singleLayoutOf(l, 1)
	for _, tc := range []struct {
		name          string
		step          Step
		limit, offset int64
	}{
		{"in-multirange-stop-in-second-range", Step{Instance: 0, IndexName: "o_cust_status",
			In: []KeySource{Literal(sqltypes.NewInt(9)), Literal(sqltypes.NewInt(5)), Literal(sqltypes.NewInt(7))}}, 70, 20},
		{"clustered-stop-past-first-batch", Step{Instance: 0,
			Filter: compileWhere(t, single, "cust_id != 3"), FilterSrc: whereExpr(t, "cust_id != 3")}, batchSize, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Layout: single, Steps: []Step{tc.step},
				Output: vecOutputs(t, single, "id", "cust_id"), Limit: tc.limit, Offset: tc.offset}
			if res := runBothEngines(t, store, p); int64(len(res.Rows)) != tc.limit {
				t.Fatalf("rows = %d, want %d", len(res.Rows), tc.limit)
			}
		})
	}
}

// TestDriverDifferentialOuterOperands holds inner-step kernels that read the
// outer row's columns as batch constants to the reference interpreter: every
// comparison with the outer column on either side, customer 40's NULL tier,
// mixed kinds, IN / BETWEEN / LIKE / IS NULL with an outer operand, columns of
// an instance not placed yet, covering and ICP steps, early stops, and the
// closure fallbacks that widen their rows before filtering.
func TestDriverDifferentialOuterOperands(t *testing.T) {
	store, l := joinFixture(t)
	pred := func(where string) (CompiledExpr, sqlparser.Expr) {
		return compileWhere(t, l, where), whereExpr(t, where)
	}
	outer := Step{Instance: 0}
	outer.Filter, outer.FilterSrc = pred("c.id >= 36") // 36..40; 40's tier is NULL
	first := Literal(sqltypes.NewInt(240))
	scan := func(where string) Step { // a clustered scan of the first 240 orders
		s := Step{Instance: 1, Range: &RangeSpec{Hi: &first}}
		s.Filter, s.FilterSrc = pred(where)
		return s
	}
	probe := Step{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))}}
	with := func(s Step, edit func(*Step)) Step {
		edit(&s)
		return s
	}
	type outerCase struct {
		name  string
		steps []Step
		limit int64
	}
	var cases []outerCase
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, form := range []string{"o.cust_id ? c.tier", "c.tier ? o.cust_id", // NULL outer value
			"o.amount ? c.id", "c.id ? o.amount", // int outer, float inner
			"o.status ? c.tier OR o.id < 3", "c.city ? o.id OR o.id < 3"} { // string vs int
			where := strings.ReplaceAll(form, "?", op)
			cases = append(cases, outerCase{where, []Step{outer, scan(where)}, -1})
		}
	}
	for _, where := range []string{
		"o.cust_id <=> c.tier OR c.tier <=> o.amount",
		"c.city IN ('sf', 'la') AND o.cust_id NOT IN (1, 2)",
		"o.cust_id BETWEEN c.tier AND c.id AND c.id NOT BETWEEN o.cust_id AND o.amount",
		"c.city LIKE 's%' OR o.status NOT LIKE c.city",
		"c.tier IS NULL OR NOT (o.cust_id > c.tier)",
		"c2.id IS NULL AND c2.city IS NULL AND o.id < c.id", // c2 is placed later: NULL here
		"c.tier", // a bare outer column as the predicate
	} {
		cases = append(cases, outerCase{where, []Step{outer, scan(where)}, -1})
	}
	cases = append(cases,
		outerCase{"covering", []Step{outer, with(probe, func(s *Step) {
			s.Covering = true
			s.Filter, s.FilterSrc = pred("o.status != c.city AND o.id > c.id")
		})}, -1},
		outerCase{"icp", []Step{outer, with(probe, func(s *Step) {
			s.ICP, s.ICPSrc = pred("o.status < c.city OR o.id < c.id * 1")
			s.Filter, s.FilterSrc = pred("o.amount > c.id")
		})}, -1},
		outerCase{"icp-closure-widens-first", []Step{outer, with(probe, func(s *Step) {
			s.ICP = compileWhere(t, l, "o.status < c.city") // no source: closure only
			s.Filter, s.FilterSrc = pred("o.amount > c.id")
		})}, -1},
		outerCase{"three-way", []Step{outer, probe, {Instance: 2, EqKeys: []KeySource{SlotRef(refOff(t, l, "o.cust_id"))},
			Filter:    compileWhere(t, l, "c2.tier >= c.tier AND c2.city = c.city AND o.id > c2.id"),
			FilterSrc: whereExpr(t, "c2.tier >= c.tier AND c2.city = c.city AND o.id > c2.id")}}, -1},
		outerCase{"limit-narrow", []Step{outer, scan("o.cust_id < c.id")}, 300},
		outerCase{"fallback-widens-first", []Step{outer, scan("o.amount + 1 > c.id")}, -1},
		outerCase{"fallback-limit", []Step{outer, scan("o.amount + 1 > c.id")}, 301},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Layout: l, Steps: tc.steps, Output: vecOutputs(t, l, "c.id", "o.id", "o.status"), Limit: tc.limit}
			if res := runBothEngines(t, store, p); len(res.Rows) == 0 {
				t.Fatal("shape produced no rows: the case checks nothing")
			}
		})
	}
}

// TestDriverDifferentialReadAhead holds outer steps that read ahead under a
// row target to the reference interpreter: a three-step LIMIT join whose
// outer step is a non-covering index scan with ICP and a filter, a middle
// step of one row (a primary-key probe) or many (a clustered range of
// customers 0..o.cust_id), and an inner fan-out of 0, 1 or many rows per
// middle row, at several LIMIT and OFFSET values. The exec.readahead_uncharged
// counter shows where each target completed: stop0 cases end mid-batch at
// depth 0 (their middle step reads one entry per scan, the last step never
// reads past its target), stop1 cases at depth 1 (inside the first outer row,
// a batch of one), and exact cases read nothing past the stopping row — with
// a fan-out of one, an outer step's read-ahead never exceeds the rows still
// wanted.
func TestDriverDifferentialReadAhead(t *testing.T) {
	store, schema := fixtureN(t, 3000)
	l := NewLayout([]Instance{
		{Alias: "o", Table: schema.Table("orders")},
		{Alias: "c", Table: schema.Table("customers")},
		{Alias: "o2", Table: schema.Table("orders")},
	})
	pred := func(where string) (CompiledExpr, sqlparser.Expr) {
		return compileWhere(t, l, where), whereExpr(t, where)
	}
	five, seven := Literal(sqltypes.NewInt(5)), Literal(sqltypes.NewInt(7))
	outer := Step{Instance: 0, IndexName: "o_cust_status", Range: &RangeSpec{Lo: &five, Hi: &seven, LoInc: true, HiInc: true}}
	outer.ICP, outer.ICPSrc = pred("o.status != 'new'")
	outer.Filter, outer.FilterSrc = pred("o.amount > 3")
	custID := SlotRef(refOff(t, l, "o.cust_id"))
	middles := map[string]Step{
		"pk":    {Instance: 1, EqKeys: []KeySource{custID}},
		"range": {Instance: 1, Range: &RangeSpec{Hi: &custID, HiInc: true}},
	}
	fanouts := map[string]string{"none": "o2.id < 0", "one": "o2.id < 40", "many": "o2.id >= 0"}
	for _, tc := range []struct {
		middle, fanout string
		limit, offset  int64
		stop           string // "stop0", "stop1", "exact" (nothing read past) or "" (not asserted)
	}{
		{"pk", "none", 10, 0, "exact"},
		{"pk", "one", 1, 0, "exact"},
		{"pk", "one", 2, 0, "exact"},
		{"pk", "one", 9, 3, "exact"},
		{"pk", "one", 40, 25, "exact"},
		{"pk", "many", 5, 0, "exact"},
		{"pk", "many", 100, 0, "stop0"},
		{"pk", "many", 90, 300, "stop0"},
		{"range", "none", 10, 0, "exact"},
		{"range", "one", 3, 0, "exact"},
		{"range", "one", 7, 3, ""},
		{"range", "one", 50, 40, ""},
		{"range", "many", 100, 0, "stop1"},
		{"range", "many", 60, 100, "stop1"},
		{"range", "many", 2000, 1500, ""},
	} {
		name := fmt.Sprintf("%s-%s-limit%d-offset%d", tc.middle, tc.fanout, tc.limit, tc.offset)
		t.Run(name, func(t *testing.T) {
			inner := Step{Instance: 2, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))}}
			inner.Filter, inner.FilterSrc = pred(fanouts[tc.fanout])
			p := &Plan{Layout: l, Steps: []Step{outer, middles[tc.middle], inner},
				Output: vecOutputs(t, l, "o.id", "c.id", "o2.id"), Limit: tc.limit, Offset: tc.offset}
			res := runBothEngines(t, store, p)
			if (len(res.Rows) == 0) != (tc.fanout == "none") {
				t.Fatalf("%d rows: the case checks nothing", len(res.Rows))
			}
			reg := obs.NewRegistry()
			ex := New(store)
			ex.SetObs(reg)
			if _, err := ex.Run(p, nil); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("exec.readahead_uncharged").Value(); tc.stop != "" && (n == 0) != (tc.stop == "exact") {
				t.Errorf("%d entries read ahead and left uncharged, want %s", n, tc.stop)
			}
		})
	}

	// A closure that fails on a row past the one completing the target: the
	// loop never evaluates it, so neither may read-ahead.
	join := NewLayout([]Instance{{Alias: "c", Table: schema.Table("customers")}, {Alias: "o", Table: schema.Table("orders")}})
	failing := Step{Instance: 0, Filter: compileWhere(t, join, "c.id < 3 OR c.city + 1 > 0")} // fails from customer 3
	probe := Step{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, join, "c.id"))}}
	p := &Plan{Layout: join, Steps: []Step{failing, probe}, Output: vecOutputs(t, join, "c.id", "o.id"), Limit: 160}
	if res := runBothEngines(t, store, p); len(res.Rows) != 160 {
		t.Fatalf("rows = %d, want 160", len(res.Rows))
	}
	p.Limit = -1
	for _, run := range []func(*Plan, []string) (*Result, error){New(store).Run, New(store).runReference} {
		if _, err := run(p, nil); err == nil {
			t.Fatal("a failing filter without a target ran to completion")
		}
	}
}

// TestJoinAllocsFlatInOuterRows pins that an inner step reopens its scans
// from buffers in its arena: an index nested-loop join allocates no more
// with 35 outer rows than with 5. The bound allows a few allocations of
// jitter, because sync.Pool drops arenas at random under the race detector;
// one allocation per outer row would add 30.
func TestJoinAllocsFlatInOuterRows(t *testing.T) {
	store, l := joinFixture(t)
	ex := New(store)
	paid, done := Literal(sqltypes.NewString("paid")), Literal(sqltypes.NewString("done"))
	for name, inner := range map[string]Step{
		"eq":    {Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))}},
		"range": {Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))}, Range: &RangeSpec{Lo: &done, Hi: &paid}},
		"in":    {Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))}, In: []KeySource{paid, done}},
	} {
		inner.Filter, inner.FilterSrc = compileWhere(t, l, "o.id > c.id"), whereExpr(t, "o.id > c.id")
		allocs := func(outerRows int) float64 {
			where := fmt.Sprintf("c.id < %d", outerRows)
			p := &Plan{Layout: l, Limit: -1, Grouped: true, Aggs: []AggSpec{{Func: AggCount}}, Output: []OutputSpec{{Agg: 0}},
				Steps: []Step{{Instance: 0, Filter: compileWhere(t, l, where), FilterSrc: whereExpr(t, where)}, inner}}
			return testing.AllocsPerRun(50, func() {
				if _, err := ex.Run(p, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(5), allocs(35); many-few >= 15 {
			t.Errorf("%s: %.0f allocations with 35 outer rows, %.0f with 5: the inner step allocates per outer row", name, many, few)
		}
	}
}

// singleLayoutOf is the one-instance layout of instance i of l.
func singleLayoutOf(l *Layout, i int) *Layout {
	return NewLayout([]Instance{{Alias: l.Instances[i].Table.Name, Table: l.Instances[i].Table}})
}

// TestLimitZeroReadsNothing pins that LIMIT 0 opens no scan. It used to run
// until the first qualifying row (the whole table when none qualifies, and
// always for grouped or sorted plans), and the monitor booked that work
// against an empty result: a DDR-0 query with maximal Eq. 5 benefit.
func TestLimitZeroReadsNothing(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "orders")
	never := Step{Instance: 0, Filter: compileWhere(t, l, "cust_id = 99"), FilterSrc: whereExpr(t, "cust_id = 99")}
	for name, p := range map[string]*Plan{
		"filtered": {Layout: l, Steps: []Step{never}, Output: vecOutputs(t, l, "id")},
		"offset":   {Layout: l, Steps: []Step{{Instance: 0}}, Output: vecOutputs(t, l, "id"), Offset: 3},
		"grouped": {Layout: l, Steps: []Step{{Instance: 0}}, Grouped: true,
			Aggs: []AggSpec{{Func: AggCount}}, Output: []OutputSpec{{Agg: 0}}},
		"sorted-distinct": {Layout: l, Steps: []Step{{Instance: 0}}, Output: vecOutputs(t, l, "status"),
			Distinct: true, OrderBy: []OrderSpec{{Col: 0}}},
	} {
		t.Run(name, func(t *testing.T) {
			res := runBothEngines(t, store, p) // Limit is the zero value
			if len(res.Rows) != 0 || res.Stats != (Stats{}) {
				t.Fatalf("LIMIT 0 returned %d rows with %+v, want nothing read", len(res.Rows), res.Stats)
			}
		})
	}
}

// TestCollectPKsDifferential holds the read phase of UPDATE/DELETE on the
// driver to the reference interpreter: same keys in the same order, same
// Stats.
func TestCollectPKsDifferential(t *testing.T) {
	store, schema := fixtureN(t, 3000)
	l := singleLayout(schema, "orders")
	lo, hi := Literal(sqltypes.NewInt(100)), Literal(sqltypes.NewInt(2400))
	for name, step := range map[string]Step{
		"clustered-range": {Instance: 0, Range: &RangeSpec{Lo: &lo, Hi: &hi, LoInc: true},
			Filter: compileWhere(t, l, "status != 'new'"), FilterSrc: whereExpr(t, "status != 'new'")},
		"clustered-point": {Instance: 0, EqKeys: []KeySource{lo}},
		"secondary-icp": {Instance: 0, IndexName: "o_cust_status", EqKeys: []KeySource{Literal(sqltypes.NewInt(6))},
			ICP: compileWhere(t, l, "status = 'shipped'"), ICPSrc: whereExpr(t, "status = 'shipped'"),
			Filter: compileWhere(t, l, "amount + 0 > 900")},
		"secondary-in": {Instance: 0, IndexName: "o_cust_status",
			In: []KeySource{Literal(sqltypes.NewInt(8)), Literal(sqltypes.NewInt(3))}},
	} {
		t.Run(name, func(t *testing.T) {
			p := &Plan{Layout: l, Steps: []Step{step}, Limit: -1}
			for _, withObs := range []bool{false, true} {
				ex := New(store)
				if withObs {
					ex.SetObs(obs.NewRegistry())
				}
				want, wantSt, err := ex.collectPKsReference(p)
				if err != nil {
					t.Fatal(err)
				}
				got, gotSt, err := ex.CollectPKs(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("plan matched no rows: the case checks nothing")
				}
				if fmt.Sprintf("%x %+v", got, gotSt) != fmt.Sprintf("%x %+v", want, wantSt) {
					t.Fatalf("obs=%v: driver %d keys %+v, reference %d keys %+v", withObs, len(got), gotSt, len(want), wantSt)
				}
			}
		})
	}
}

// TestDriverConcurrentRuns runs join and early-stop plans from many
// goroutines on ONE executor (run it under -race): arenas are pooled per
// executor and handed out one per step, so neither a concurrent run nor a
// run's own inner scan may ever write into a batch another scan still reads.
func TestDriverConcurrentRuns(t *testing.T) {
	store, l := joinFixture(t)
	steps := []Step{{Instance: 0},
		{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(refOff(t, l, "c.id"))},
			Filter: compileWhere(t, l, "o.id > c.id"), FilterSrc: whereExpr(t, "o.id > c.id")},
		{Instance: 2, EqKeys: []KeySource{SlotRef(refOff(t, l, "o.cust_id"))}}}
	out := vecOutputs(t, l, "c.id", "o.id", "c2.city")
	plans := []*Plan{
		{Layout: l, Steps: steps, Output: out, Limit: -1},
		{Layout: l, Steps: steps, Output: out, Limit: 130, Offset: 40},
		{Layout: l, Steps: steps[:2], Output: out[:2], Limit: batchSize + 1},
	}
	ex := New(store)
	want := make([]string, len(plans))
	for i, p := range plans {
		res, err := ex.runReference(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderResult(res)
	}
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for n := 0; n < 6; n++ {
				i := (g + n) % len(plans)
				res, err := ex.Run(plans[i], nil)
				if err == nil && renderResult(res) != want[i] {
					err = fmt.Errorf("goroutine %d: plan %d diverged from the reference", g, i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
