package exec

import (
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// fixture builds a store with orders(id, cust_id, status, amount) and
// customers(id, city, tier), plus an index on orders(cust_id, status).
func fixture(t testing.TB) (*storage.Store, *catalog.Schema) {
	t.Helper()
	return fixtureN(t, 400)
}

// fixtureN is fixture with nOrders order rows (cust_id = id % 40).
func fixtureN(t testing.TB, nOrders int64) (*storage.Store, *catalog.Schema) {
	t.Helper()
	schema := catalog.NewSchema()
	orders, err := catalog.NewTable("orders", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "cust_id", Type: sqltypes.KindInt},
		{Name: "status", Type: sqltypes.KindString},
		{Name: "amount", Type: sqltypes.KindFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	customers, err := catalog.NewTable("customers", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
		{Name: "tier", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.AddTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddTable(customers); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	ot, _ := store.CreateTable(orders)
	ct, _ := store.CreateTable(customers)
	statuses := []string{"new", "paid", "shipped", "done"}
	for i := int64(0); i < nOrders; i++ {
		err := ot.Insert(sqltypes.Row{
			sqltypes.NewInt(i),
			sqltypes.NewInt(i % 40),
			sqltypes.NewString(statuses[i%4]),
			sqltypes.NewFloat(float64(i) * 1.5),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		city := "sf"
		if i%2 == 0 {
			city = "nyc"
		}
		err := ct.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(city), sqltypes.NewInt(i % 3)}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	ixDef := &catalog.Index{Name: "o_cust_status", Table: "orders", Columns: []string{"cust_id", "status"}}
	if err := schema.AddIndex(ixDef); err != nil {
		t.Fatal(err)
	}
	if _, err := ot.BuildIndex(ixDef, nil); err != nil {
		t.Fatal(err)
	}
	return store, schema
}

func singleLayout(schema *catalog.Schema, table string) *Layout {
	return NewLayout([]Instance{{Alias: table, Table: schema.Table(table)}})
}

func compileWhere(t testing.TB, l *Layout, where string) CompiledExpr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM x WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Compile(stmt.(*sqlparser.Select).Where, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ce
}

func colOutput(t testing.TB, l *Layout, refs ...string) []OutputSpec {
	t.Helper()
	out := make([]OutputSpec, len(refs))
	for i, r := range refs {
		qual := ""
		if idx := strings.IndexByte(r, '.'); idx >= 0 {
			qual, r = r[:idx], r[idx+1:]
		}
		off, err := l.Resolve(qual, r)
		if err != nil {
			t.Fatal(err)
		}
		o := off
		out[i] = OutputSpec{Agg: -1, Expr: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[o], nil }}
	}
	return out
}

func TestCompileEvaluation(t *testing.T) {
	_, schema := fixture(t)
	l := singleLayout(schema, "orders")
	env := make([]sqltypes.Value, l.Width)
	env[0] = sqltypes.NewInt(7)         // id
	env[1] = sqltypes.NewInt(3)         // cust_id
	env[2] = sqltypes.NewString("paid") // status
	env[3] = sqltypes.NewFloat(10.5)    // amount

	cases := []struct {
		where string
		want  bool
	}{
		{"id = 7", true},
		{"id != 7", false},
		{"id + 1 = 8", true},
		{"id * 2 >= 14", true},
		{"amount / 2 > 5", true},
		{"amount - 0.5 = 10.0", true},
		{"id % 2 = 1", true},
		{"status = 'paid'", true},
		{"status LIKE 'pa%'", true},
		{"status LIKE '%id'", true},
		{"status LIKE 'p_id'", true},
		{"status LIKE 'x%'", false},
		{"status NOT LIKE 'x%'", true},
		{"id IN (1, 7, 9)", true},
		{"id NOT IN (1, 7, 9)", false},
		{"id BETWEEN 5 AND 9", true},
		{"id NOT BETWEEN 5 AND 9", false},
		{"id IS NULL", false},
		{"id IS NOT NULL", true},
		{"id = 7 AND status = 'paid'", true},
		{"id = 8 OR status = 'paid'", true},
		{"NOT (id = 8)", true},
		{"id <=> 7", true},
		{"LENGTH(status) = 4", true},
		{"ABS(0 - id) = 7", true},
	}
	for _, c := range cases {
		ce := compileWhere(t, l, c.where)
		got, err := passes(ce, env)
		if err != nil {
			t.Errorf("%s: %v", c.where, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestCompileNullSemantics(t *testing.T) {
	_, schema := fixture(t)
	l := singleLayout(schema, "orders")
	env := make([]sqltypes.Value, l.Width) // all NULL

	for _, where := range []string{"id = 1", "id != 1", "id < 1", "id IN (1,2)", "id BETWEEN 1 AND 2", "status LIKE 'a%'"} {
		ce := compileWhere(t, l, where)
		v, err := ce(env)
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsNull() {
			t.Errorf("%s over NULL row = %v, want NULL", where, v)
		}
	}
	// IS NULL is true; <=> NULL literal is true.
	ce := compileWhere(t, l, "id IS NULL")
	if ok, _ := passes(ce, env); !ok {
		t.Error("IS NULL should pass")
	}
	ce = compileWhere(t, l, "id <=> NULL")
	if ok, _ := passes(ce, env); !ok {
		t.Error("<=> NULL should pass")
	}
	// Short-circuit: FALSE AND NULL = FALSE, TRUE OR NULL = TRUE.
	ce = compileWhere(t, l, "1 = 2 AND id = 1")
	if v, _ := ce(env); v.IsNull() || v.Bool() {
		t.Error("FALSE AND NULL should be FALSE")
	}
	ce = compileWhere(t, l, "1 = 1 OR id = 1")
	if v, _ := ce(env); v.IsNull() || !v.Bool() {
		t.Error("TRUE OR NULL should be TRUE")
	}
}

func TestCompileErrors(t *testing.T) {
	_, schema := fixture(t)
	l := singleLayout(schema, "orders")
	bad := []sqlparser.Expr{
		&sqlparser.ColumnRef{Column: "nope"},
		&sqlparser.ColumnRef{Table: "ghost", Column: "id"},
		&sqlparser.Placeholder{},
		&sqlparser.FuncExpr{Name: "NOSUCH"},
	}
	for _, e := range bad {
		if _, err := Compile(e, l, nil); err == nil {
			t.Errorf("Compile(%s) should fail", e.SQL())
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c%", true},
	}
	for _, c := range cases {
		if likeMatch(c.s, c.p) != c.want {
			t.Errorf("likeMatch(%q, %q) != %v", c.s, c.p, c.want)
		}
	}
	if LikePrefix("abc%def") != "abc" || LikePrefix("xyz") != "xyz" || LikePrefix("%a") != "" {
		t.Error("LikePrefix wrong")
	}
}

// TestLikeMatchesANumbersText: LIKE matches an INT as its decimal text on
// every path: the row closure, the batch kernel and the reference
// interpreter. customers.id is 0..39, so '1%' keeps 1 and 10..19.
func TestLikeMatchesANumbersText(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "customers")
	for where, want := range map[string]int{"id LIKE '1%'": 11, "id NOT LIKE '1%'": 29, "id LIKE 1": 1, "id LIKE '_9'": 3} {
		for _, kernel := range []bool{false, true} {
			step := Step{Instance: 0, Filter: compileWhere(t, l, where)}
			if kernel {
				step.FilterSrc = whereExpr(t, where)
			}
			p := &Plan{Layout: l, Steps: []Step{step}, Output: vecOutputs(t, l, "id"), Limit: -1}
			if got := len(runBothEngines(t, store, p).Rows); got != want {
				t.Errorf("kernel=%v: %s kept %d rows, want %d", kernel, where, got, want)
			}
		}
	}
}

func TestFullScanWithFilter(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout: l,
		Steps:  []Step{{Instance: 0, Filter: compileWhere(t, l, "cust_id = 5")}},
		Output: colOutput(t, l, "id", "amount"),
		Limit:  -1,
	}
	res, err := ex.Run(p, []string{"id", "amount"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	if res.Stats.RowsRead != 400 {
		t.Errorf("full scan RowsRead = %d, want 400", res.Stats.RowsRead)
	}
	if res.Stats.RowsSent != 10 {
		t.Errorf("RowsSent = %d", res.Stats.RowsSent)
	}
}

func TestIndexEqScan(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout: l,
		Steps: []Step{{
			Instance:  0,
			IndexName: "o_cust_status",
			EqKeys:    []KeySource{Literal(sqltypes.NewInt(5)), Literal(sqltypes.NewString("paid"))},
		}},
		Output: colOutput(t, l, "id"),
		Limit:  -1,
	}
	res, err := ex.Run(p, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	// cust_id = 5: ids 5,45,...,365 (10 rows); status paid = id%4==1 → ids 45,125,205,285,365? id%40==5 and id%4==1: id≡5 (mod 40) → id%4 == 1 iff 5%4==1 yes all. Wait: 5%4=1 so all 10 rows are 'paid'? statuses[i%4] with i≡5 mod 40 → i%4 = 1 always → status "paid". So 10 rows.
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Index scan should touch ~20 rows (10 entries + 10 PK lookups), far
	// fewer than the 400-row full scan.
	if res.Stats.RowsRead > 30 {
		t.Errorf("index scan RowsRead = %d, want ~20", res.Stats.RowsRead)
	}
}

func TestIndexRangeScan(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	lo, hi := Literal(sqltypes.NewString("paid")), Literal(sqltypes.NewString("shipped"))
	p := &Plan{
		Layout: l,
		Steps: []Step{{
			Instance:  0,
			IndexName: "o_cust_status",
			EqKeys:    []KeySource{Literal(sqltypes.NewInt(5))},
			Range:     &RangeSpec{Lo: &lo, Hi: &hi, LoInc: true, HiInc: false},
		}},
		Output: colOutput(t, l, "id", "status"),
		Limit:  -1,
	}
	res, err := ex.Run(p, []string{"id", "status"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].Str() != "paid" {
			t.Errorf("unexpected status %v", r[1])
		}
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestCoveringScanSkipsPKLookups(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	mk := func(covering bool) *Plan {
		return &Plan{
			Layout: l,
			Steps: []Step{{
				Instance:  0,
				IndexName: "o_cust_status",
				EqKeys:    []KeySource{Literal(sqltypes.NewInt(5))},
				Covering:  covering,
			}},
			Output: colOutput(t, l, "cust_id", "status", "id"),
			Limit:  -1,
		}
	}
	cov, err := ex.Run(mk(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	non, err := ex.Run(mk(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Rows) != len(non.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(cov.Rows), len(non.Rows))
	}
	if cov.Stats.RowsRead >= non.Stats.RowsRead {
		t.Errorf("covering read %d rows, non-covering %d", cov.Stats.RowsRead, non.Stats.RowsRead)
	}
	if cov.Stats.PageReads >= non.Stats.PageReads {
		t.Errorf("covering pages %d, non-covering %d", cov.Stats.PageReads, non.Stats.PageReads)
	}
	// Covered values must match the base rows.
	for i := range cov.Rows {
		for j := range cov.Rows[i] {
			if sqltypes.Compare(cov.Rows[i][j], non.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, cov.Rows[i][j], non.Rows[i][j])
			}
		}
	}
}

func TestICPFiltersBeforePKLookup(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	icp := compileWhere(t, l, "status = 'paid'")
	p := &Plan{
		Layout: l,
		Steps: []Step{{
			Instance:  0,
			IndexName: "o_cust_status",
			EqKeys:    []KeySource{Literal(sqltypes.NewInt(4))},
			ICP:       icp,
		}},
		Output: colOutput(t, l, "id", "status"),
		Limit:  -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cust_id=4 → ids ≡ 4 (mod 40) → status index i%4 = 0 → "new". None paid.
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
	// ICP should have examined 10 index entries but done zero PK lookups.
	if res.Stats.RowsRead != 10 {
		t.Errorf("RowsRead = %d, want 10 (entries only)", res.Stats.RowsRead)
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := NewLayout([]Instance{
		{Alias: "c", Table: schema.Table("customers")},
		{Alias: "o", Table: schema.Table("orders")},
	})
	custIDOff, _ := l.Resolve("c", "id")
	cityFilter := compileWhere(t, l, "c.city = 'nyc'")
	p := &Plan{
		Layout: l,
		Steps: []Step{
			{Instance: 0, Filter: cityFilter},
			{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(custIDOff)}},
		},
		Output: colOutput(t, l, "city", "amount"),
		Limit:  -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 20 nyc customers x 10 orders each.
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Str() != "nyc" {
			t.Fatal("join leaked non-nyc row")
		}
	}
}

func TestJoinMatchesFullScanSemantics(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := NewLayout([]Instance{
		{Alias: "c", Table: schema.Table("customers")},
		{Alias: "o", Table: schema.Table("orders")},
	})
	joinCond := compileWhere(t, l, "o.cust_id = c.id AND c.tier = 1")
	// Plan A: cross product + filter on the last step.
	planA := &Plan{
		Layout: l,
		Steps: []Step{
			{Instance: 0},
			{Instance: 1, Filter: joinCond},
		},
		Output: colOutput(t, l, "c.id", "city"),
		Limit:  -1,
	}
	// Plan B: index lookup join with tier filter on first step.
	custIDOff, _ := l.Resolve("c", "id")
	planB := &Plan{
		Layout: l,
		Steps: []Step{
			{Instance: 0, Filter: compileWhere(t, l, "c.tier = 1")},
			{Instance: 1, IndexName: "o_cust_status", EqKeys: []KeySource{SlotRef(custIDOff)}},
		},
		Output: colOutput(t, l, "c.id", "city"),
		Limit:  -1,
	}
	a, err := ex.Run(planA, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Run(planB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts: %d vs %d", len(a.Rows), len(b.Rows))
	}
	if b.Stats.RowsRead >= a.Stats.RowsRead {
		t.Errorf("index join should read fewer rows: %d vs %d", b.Stats.RowsRead, a.Stats.RowsRead)
	}
}

func TestHashAggregation(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	statusOff, _ := l.Resolve("", "status")
	amountOff, _ := l.Resolve("", "amount")
	p := &Plan{
		Layout:  l,
		Steps:   []Step{{Instance: 0}},
		Grouped: true,
		GroupBy: []CompiledExpr{func(env []sqltypes.Value) (sqltypes.Value, error) { return env[statusOff], nil }},
		Aggs: []AggSpec{
			{Func: AggCount},
			{Func: AggSum, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[amountOff], nil }},
			{Func: AggMin, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[amountOff], nil }},
			{Func: AggMax, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[amountOff], nil }},
			{Func: AggAvg, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[amountOff], nil }},
		},
		Output: []OutputSpec{
			{Agg: -1, Expr: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[statusOff], nil }},
			{Agg: 0}, {Agg: 1}, {Agg: 2}, {Agg: 3}, {Agg: 4},
		},
		Limit: -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 100 {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
		if r[2].IsNull() || r[3].IsNull() || r[4].IsNull() || r[5].IsNull() {
			t.Errorf("group %v has null aggregates", r[0])
		}
		avg := r[2].Float() / 100
		if diff := avg - r[5].Float(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("avg mismatch: %v vs %v", avg, r[5])
		}
	}
}

func TestStreamAggregationMatchesHash(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	custOff, _ := l.Resolve("", "cust_id")
	groupBy := []CompiledExpr{func(env []sqltypes.Value) (sqltypes.Value, error) { return env[custOff], nil }}
	mk := func(stream bool) *Plan {
		step := Step{Instance: 0}
		if stream {
			// Scan via the index on (cust_id, status): rows arrive in
			// cust_id order, so streaming aggregation is valid.
			step.IndexName = "o_cust_status"
		}
		return &Plan{
			Layout:       l,
			Steps:        []Step{step},
			Grouped:      true,
			GroupBy:      groupBy,
			GroupOrdered: stream,
			Aggs:         []AggSpec{{Func: AggCount}},
			Output: []OutputSpec{
				{Agg: -1, Expr: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[custOff], nil }},
				{Agg: 0},
			},
			Limit: -1,
		}
	}
	hash, err := ex.Run(mk(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ex.Run(mk(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash.Rows) != 40 || len(stream.Rows) != 40 {
		t.Fatalf("groups: hash=%d stream=%d", len(hash.Rows), len(stream.Rows))
	}
	counts := map[int64]int64{}
	for _, r := range hash.Rows {
		counts[r[0].Int()] = r[1].Int()
	}
	for _, r := range stream.Rows {
		if counts[r[0].Int()] != r[1].Int() {
			t.Fatalf("stream group %v count %v != hash %v", r[0], r[1], counts[r[0].Int()])
		}
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	amountOff, _ := l.Resolve("", "amount")
	p := &Plan{
		Layout:  l,
		Steps:   []Step{{Instance: 0, Filter: compileWhere(t, l, "id = -1")}},
		Grouped: true,
		Aggs: []AggSpec{
			{Func: AggCount},
			{Func: AggSum, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[amountOff], nil }},
		},
		Output: []OutputSpec{{Agg: 0}, {Agg: 1}},
		Limit:  -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestOrderLimitOffsetDistinct(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout:   l,
		Steps:    []Step{{Instance: 0}},
		Output:   colOutput(t, l, "status"),
		Distinct: true,
		OrderBy:  []OrderSpec{{Col: 0, Desc: true}},
		Limit:    2,
		Offset:   1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Distinct statuses sorted desc: shipped, paid, new, done → offset 1,
	// limit 2 → paid, new.
	if res.Rows[0][0].Str() != "paid" || res.Rows[1][0].Str() != "new" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Stats.SortRows == 0 {
		t.Error("sort not accounted")
	}
}

func TestOrderSatisfiedSkipsSort(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout:         l,
		Steps:          []Step{{Instance: 0, IndexName: "o_cust_status"}},
		Output:         colOutput(t, l, "cust_id"),
		OrderBy:        []OrderSpec{{Col: 0}},
		OrderSatisfied: true,
		Limit:          -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SortRows != 0 {
		t.Error("sort should be skipped")
	}
	for i := 1; i < len(res.Rows); i++ {
		if sqltypes.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
			t.Fatal("index scan did not deliver sorted rows")
		}
	}
}

func TestHiddenTailTrimmed(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout:     l,
		Steps:      []Step{{Instance: 0}},
		Output:     colOutput(t, l, "status", "amount"),
		OrderBy:    []OrderSpec{{Col: 1, Desc: true}},
		HiddenTail: 1,
		Limit:      3,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.Rows[0]) != 1 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.Rows[0]))
	}
}

func TestDMLInsertUpdateDelete(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	st, err := ex.Insert("orders", []sqltypes.Row{
		{sqltypes.NewInt(1000), sqltypes.NewInt(1), sqltypes.NewString("new"), sqltypes.NewFloat(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsWritten != 1 || st.IndexWrites != 1 {
		t.Errorf("insert stats = %+v", st)
	}
	if _, err := ex.Insert("ghost", nil); err == nil {
		t.Error("insert into missing table should fail")
	}

	l := singleLayout(schema, "orders")
	findPlan := &Plan{
		Layout: l,
		Steps:  []Step{{Instance: 0, Filter: compileWhere(t, l, "id = 1000")}},
		Limit:  -1,
	}
	amountOrd := schema.Table("orders").ColumnIndex("amount")
	st, err = ex.Update(findPlan, []Assignment{{
		Ordinal: amountOrd,
		Value:   func(env []sqltypes.Value) (sqltypes.Value, error) { return sqltypes.NewFloat(99), nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsSent != 1 {
		t.Errorf("update affected %d", st.RowsSent)
	}
	row, _ := store.Table("orders").GetByPK(
		store.Table("orders").PKKey(sqltypes.Row{sqltypes.NewInt(1000), sqltypes.Null, sqltypes.Null, sqltypes.Null}), nil)
	if row[3].Float() != 99 {
		t.Errorf("update not applied: %v", row)
	}

	st, err = ex.Delete(findPlan)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsSent != 1 {
		t.Errorf("delete affected %d", st.RowsSent)
	}
	if store.Table("orders").RowCount() != 400 {
		t.Errorf("row count = %d, want 400", store.Table("orders").RowCount())
	}
	// Index must be consistent after the DML round trip.
	if store.Table("orders").Index("o_cust_status").Len() != 400 {
		t.Error("index out of sync after DML")
	}
}

func TestCPUSecondsModel(t *testing.T) {
	var s Stats
	if s.CPUSeconds() != 0 {
		t.Error("zero stats should cost 0")
	}
	s.PageReads = 100
	base := s.CPUSeconds()
	if base <= 0 {
		t.Error("page reads should cost")
	}
	s.SortRows = 1000
	if s.CPUSeconds() <= base {
		t.Error("sort should add cost")
	}
}

func TestInMultiRangeScan(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout: l,
		Steps: []Step{{
			Instance:  0,
			IndexName: "o_cust_status",
			In: []KeySource{
				Literal(sqltypes.NewInt(5)),
				Literal(sqltypes.NewInt(7)),
				Literal(sqltypes.NewInt(5)), // duplicate: must be deduped
				Literal(sqltypes.Null),      // NULL never matches
			},
		}},
		Output: colOutput(t, l, "cust_id"),
		Limit:  -1,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Rows))
	}
	// Output sorted by cust_id because values are scanned in order.
	for i := 1; i < len(res.Rows); i++ {
		if sqltypes.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
			t.Fatal("IN scan output not sorted")
		}
	}
}

func TestLimitEarlyTermination(t *testing.T) {
	store, schema := fixture(t)
	ex := New(store)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout: l,
		Steps:  []Step{{Instance: 0}},
		Output: colOutput(t, l, "id"),
		Limit:  5,
	}
	res, err := ex.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.RowsRead > 10 {
		t.Errorf("early termination read %d rows", res.Stats.RowsRead)
	}
	// With an unsatisfied ORDER BY, the full input must still be read.
	p2 := &Plan{
		Layout:  l,
		Steps:   []Step{{Instance: 0}},
		Output:  colOutput(t, l, "amount"),
		OrderBy: []OrderSpec{{Col: 0, Desc: true}},
		Limit:   5,
	}
	res2, err := ex.Run(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.RowsRead != 400 {
		t.Errorf("sorted limit read %d rows, want 400", res2.Stats.RowsRead)
	}
}
