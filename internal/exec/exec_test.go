package exec

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

func u(v uint64) sqlval.Value { return sqlval.Uint(v) }

func res(names ...string) Resolver { return ColsResolver("", names) }

func TestCompileArithmetic(t *testing.T) {
	r := res("a", "b")
	cases := []struct {
		src  string
		tp   Tuple
		want sqlval.Value
	}{
		{"a + b", Tuple{u(2), u(3)}, u(5)},
		{"a * b + 1", Tuple{u(2), u(3)}, u(7)},
		{"a / 60", Tuple{u(125), u(0)}, u(2)},
		{"a % 7", Tuple{u(9), u(0)}, u(2)},
		{"a & 0xF0", Tuple{u(0xAB), u(0)}, u(0xA0)},
		{"a | b", Tuple{u(0x0F), u(0xF0)}, u(0xFF)},
		{"a ^ b", Tuple{u(0xFF), u(0x0F)}, u(0xF0)},
		{"a >> 4", Tuple{u(0xAB), u(0)}, u(0x0A)},
		{"a << 2", Tuple{u(3), u(0)}, u(12)},
		{"a = b", Tuple{u(3), u(3)}, sqlval.Bool(true)},
		{"a != b", Tuple{u(3), u(3)}, sqlval.Bool(false)},
		{"a < b AND b < 10", Tuple{u(1), u(5)}, sqlval.Bool(true)},
		{"a > b OR a = 0", Tuple{u(0), u(5)}, sqlval.Bool(true)},
		{"NOT a = b", Tuple{u(1), u(2)}, sqlval.Bool(true)},
		{"-a", Tuple{u(3), u(0)}, sqlval.Int(-3)},
		{"~a & 0xFF", Tuple{u(0x0F), u(0)}, u(0xF0)},
		{"a - b", Tuple{u(3), u(5)}, sqlval.Int(-2)},
		{"ABS(a - b)", Tuple{u(3), u(5)}, sqlval.Int(2)},
		{"a / 0", Tuple{u(3), u(0)}, sqlval.Null},
	}
	for _, c := range cases {
		f := MustCompile(gsql.MustParseExpr(c.src), r, nil)
		got := f(c.tp)
		if !equalOrBothNull(got, c.want) {
			t.Errorf("%s over %v = %v, want %v", c.src, c.tp, got, c.want)
		}
	}
}

func equalOrBothNull(a, b sqlval.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Equal(b) && a.Kind() == b.Kind()
}

func TestCompileParamsAndErrors(t *testing.T) {
	r := res("flags")
	f := MustCompile(gsql.MustParseExpr("flags = #PATTERN#"), r, Params{"PATTERN": u(0x26)})
	if !f(Tuple{u(0x26)}).AsBool() {
		t.Error("param comparison failed")
	}
	if _, err := Compile(gsql.MustParseExpr("flags = #PATTERN#"), r, nil); err == nil {
		t.Error("unbound parameter should fail")
	}
	if _, err := Compile(gsql.MustParseExpr("nosuch + 1"), r, nil); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := Compile(gsql.MustParseExpr("SUM(flags)"), r, nil); err == nil {
		t.Error("aggregate in scalar position should fail")
	}
}

func TestNullComparisonSemantics(t *testing.T) {
	r := res("x")
	null := Tuple{sqlval.Null}
	for _, src := range []string{"x = 1", "x != 1", "x < 1", "x >= 1"} {
		f := MustCompile(gsql.MustParseExpr(src), r, nil)
		if f(null).AsBool() {
			t.Errorf("%s with NULL should not be true", src)
		}
	}
	// NULL propagates through arithmetic.
	f := MustCompile(gsql.MustParseExpr("x + 1"), r, nil)
	if !f(null).IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
}

func TestAccumulators(t *testing.T) {
	cases := []struct {
		name string
		vals []sqlval.Value
		want sqlval.Value
	}{
		{"COUNT", []sqlval.Value{u(1), u(2), sqlval.Null}, u(2)},
		{"SUM", []sqlval.Value{u(1), u(2), u(3)}, u(6)},
		{"SUM", []sqlval.Value{sqlval.Null}, sqlval.Null},
		{"MIN", []sqlval.Value{u(5), u(2), u(9)}, u(2)},
		{"MAX", []sqlval.Value{u(5), u(2), u(9)}, u(9)},
		{"AVG", []sqlval.Value{u(2), u(4)}, sqlval.Float(3)},
		{"OR_AGGR", []sqlval.Value{u(0x02), u(0x10), u(0x08)}, u(0x1A)},
		{"AND_AGGR", []sqlval.Value{u(0x0F), u(0x3F)}, u(0x0F)},
		{"XOR_AGGR", []sqlval.Value{u(5), u(3)}, u(6)},
		{"COUNT_DISTINCT", []sqlval.Value{u(1), u(1), u(2)}, u(2)},
	}
	for _, c := range cases {
		fac, err := NewAccumFactory(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		acc := fac()
		for _, v := range c.vals {
			acc.Add(v)
		}
		if got := acc.Result(); !equalOrBothNull(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.vals, got, c.want)
		}
	}
	if _, err := NewAccumFactory("NOPE"); err == nil {
		t.Error("unknown aggregate should fail")
	}
}

func TestSumAccumPromotesToFloat(t *testing.T) {
	fac, _ := NewAccumFactory("SUM")
	acc := fac()
	acc.Add(u(1))
	acc.Add(sqlval.Float(2.5))
	if got := acc.Result(); !got.Equal(sqlval.Float(3.5)) {
		t.Errorf("mixed SUM = %v", got)
	}
}

func TestFilterProject(t *testing.T) {
	r := res("time", "srcIP", "len")
	sink := &Collector{}
	op := &FilterProject{
		Filter: MustCompile(gsql.MustParseExpr("len > 10"), r, nil),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP & 0xFF00"), r, nil),
		},
		Out: sink,
	}
	op.Push(Tuple{u(1), u(0xABCD), u(5)})  // filtered out
	op.Push(Tuple{u(2), u(0xABCD), u(50)}) // passes
	op.Advance(10)
	op.Flush()
	if len(sink.Rows) != 1 || !sink.Rows[0][1].Equal(u(0xAB00)) {
		t.Fatalf("rows = %v", sink.Rows)
	}
	if !sink.Flushed {
		t.Error("flush not forwarded")
	}
	// Idempotent flush.
	op.Flush()
	if countFlushes(sink) != 1 {
		t.Error("flush should be forwarded once")
	}
}

func countFlushes(c *Collector) int {
	if c.Flushed {
		return 1
	}
	return 0
}

// buildFlowsAgg assembles the paper's flows aggregation: GROUP BY
// time/60 AS tb, srcIP, destIP with COUNT(*).
func buildFlowsAgg(out Consumer) *Aggregate {
	r := res("time", "srcIP", "destIP", "len")
	countFac, _ := NewAccumFactory("COUNT")
	return NewAggregate(AggregateConfig{
		GroupBy: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time / 60"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
			MustCompile(gsql.MustParseExpr("destIP"), r, nil),
		},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return u(wm / 60) },
		Aggs:      []AggColumn{{Factory: countFac}},
		Out:       out,
	})
}

func TestAggregateTumblingWindow(t *testing.T) {
	sink := &Collector{}
	agg := buildFlowsAgg(sink)
	// Epoch 0: two packets of flow (1,2), one of (3,4).
	agg.Push(Tuple{u(10), u(1), u(2), u(100)})
	agg.Push(Tuple{u(20), u(1), u(2), u(100)})
	agg.Push(Tuple{u(30), u(3), u(4), u(100)})
	if len(sink.Rows) != 0 {
		t.Fatal("nothing should flush before the watermark")
	}
	// Watermark into epoch 1 flushes epoch 0.
	agg.Advance(65)
	if len(sink.Rows) != 2 {
		t.Fatalf("epoch 0 rows = %v", sink.Rows)
	}
	// Deterministic order: sorted by group key after epoch.
	if !sink.Rows[0][1].Equal(u(1)) || !sink.Rows[0][3].Equal(u(2)) {
		t.Errorf("first row = %v", sink.Rows[0])
	}
	// Epoch 1 data flushes at Flush.
	agg.Push(Tuple{u(70), u(1), u(2), u(100)})
	agg.Flush()
	if len(sink.Rows) != 3 {
		t.Fatalf("after flush rows = %v", sink.Rows)
	}
	if agg.GroupCount() != 0 {
		t.Error("groups should be empty after flush")
	}
}

func TestAggregateLateTuplesDropped(t *testing.T) {
	sink := &Collector{}
	agg := buildFlowsAgg(sink)
	agg.Push(Tuple{u(10), u(1), u(2), u(100)})
	agg.Advance(70) // epoch 0 closed and emitted
	if len(sink.Rows) != 1 {
		t.Fatalf("rows = %v", sink.Rows)
	}
	// A watermark-violating tuple for epoch 0 must not re-open the
	// group (which would duplicate it downstream).
	agg.Push(Tuple{u(20), u(1), u(2), u(100)})
	agg.Flush()
	if len(sink.Rows) != 1 {
		t.Fatalf("late tuple re-opened a closed epoch: %v", sink.Rows)
	}
	if agg.Late != 1 {
		t.Errorf("Late = %d, want 1", agg.Late)
	}
}

func TestAggregateHavingAndPost(t *testing.T) {
	r := res("time", "srcIP", "destIP", "len")
	groupNames := []string{"tb", "srcIP", "destIP", "cnt"}
	gr := res(groupNames...)
	countFac, _ := NewAccumFactory("COUNT")
	sink := &Collector{}
	agg := NewAggregate(AggregateConfig{
		GroupBy: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time / 60"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
			MustCompile(gsql.MustParseExpr("destIP"), r, nil),
		},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return u(wm / 60) },
		Aggs:      []AggColumn{{Factory: countFac}},
		Having:    MustCompile(gsql.MustParseExpr("cnt >= 2"), gr, nil),
		Post: []EvalFunc{
			MustCompile(gsql.MustParseExpr("srcIP"), gr, nil),
			MustCompile(gsql.MustParseExpr("cnt * 10"), gr, nil),
		},
		Out: sink,
	})
	agg.Push(Tuple{u(10), u(1), u(2), u(100)})
	agg.Push(Tuple{u(20), u(1), u(2), u(100)})
	agg.Push(Tuple{u(30), u(3), u(4), u(100)})
	agg.Flush()
	if len(sink.Rows) != 1 {
		t.Fatalf("HAVING should keep one group, got %v", sink.Rows)
	}
	if !sink.Rows[0][0].Equal(u(1)) || !sink.Rows[0][1].Equal(u(20)) {
		t.Errorf("post-projection row = %v", sink.Rows[0])
	}
}

func TestAggregatePreFilter(t *testing.T) {
	r := res("time", "srcIP", "destIP", "len")
	countFac, _ := NewAccumFactory("COUNT")
	sink := &Collector{}
	agg := NewAggregate(AggregateConfig{
		PreFilter: MustCompile(gsql.MustParseExpr("len > 50"), r, nil),
		GroupBy:   []EvalFunc{MustCompile(gsql.MustParseExpr("srcIP"), r, nil)},
		EpochIdx:  -1,
		Aggs:      []AggColumn{{Factory: countFac}},
		Out:       sink,
	})
	agg.Push(Tuple{u(1), u(9), u(2), u(10)})
	agg.Push(Tuple{u(2), u(9), u(2), u(100)})
	agg.Flush()
	if len(sink.Rows) != 1 || !sink.Rows[0][1].Equal(u(1)) {
		t.Fatalf("rows = %v", sink.Rows)
	}
}

func TestSubSuperAggregateEquivalence(t *testing.T) {
	// Partial aggregation (paper Section 5.2.2): COUNT splits into
	// per-partition COUNT + central SUM; results must equal the
	// centralized aggregation for any tuple distribution.
	f := func(srcs []uint8, split uint8) bool {
		times := make([]uint64, len(srcs))
		for i := range srcs {
			times[i] = uint64(i)
		}
		// Centralized.
		central := &Collector{}
		agg := buildFlowsAgg(central)
		for i, s := range srcs {
			agg.Push(Tuple{u(times[i]), u(uint64(s % 4)), u(1), u(10)})
		}
		agg.Flush()

		// Two sub-aggregates (tuples split by parity of index against
		// split) feeding a SUM-merging super-aggregate.
		superSink := &Collector{}
		gr := res("tb", "srcIP", "destIP", "cnt")
		sumFac, _ := NewAccumFactory("SUM")
		super := NewAggregate(AggregateConfig{
			GroupBy: []EvalFunc{
				MustCompile(gsql.MustParseExpr("tb"), gr, nil),
				MustCompile(gsql.MustParseExpr("srcIP"), gr, nil),
				MustCompile(gsql.MustParseExpr("destIP"), gr, nil),
			},
			EpochIdx:  0,
			EpochOfWM: func(wm uint64) sqlval.Value { return u(wm / 60) },
			Aggs:      []AggColumn{{Factory: sumFac, Arg: MustCompile(gsql.MustParseExpr("cnt"), gr, nil)}},
			Out:       superSink,
		})
		union := NewUnion(2, super)
		subs := []*Aggregate{buildFlowsAgg(union.Port(0)), buildFlowsAgg(union.Port(1))}
		for i, s := range srcs {
			subs[(int(split)+i)%2].Push(Tuple{u(times[i]), u(uint64(s % 4)), u(1), u(10)})
		}
		for _, sub := range subs {
			sub.Flush()
		}
		super.Flush()

		return sameRowSet(central.Rows, superSink.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func sameRowSet(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, t := range a {
		count[Key(t)]++
	}
	for _, t := range b {
		count[Key(t)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// buildPairsJoin assembles the paper's flow_pairs self-join: left key
// (srcIP, tb), right key (srcIP, tb+1). Input columns: tb, srcIP, cnt.
func buildPairsJoin(jt gsql.JoinType, out Consumer) *Join {
	return NewJoin(pairsJoinConfig(jt, out))
}

func pairsJoinConfig(jt gsql.JoinType, out Consumer) JoinConfig {
	r := res("tb", "srcIP", "cnt")
	comb := res("tb", "srcIP", "cnt", "tb2", "srcIP2", "cnt2")
	return JoinConfig{
		Left: JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
				MustCompile(gsql.MustParseExpr("tb"), r, nil),
			},
			Width:        3,
			TemporalIdx:  1,
			MinFutureKey: func(wm uint64) sqlval.Value { return u(wm / 60) },
		},
		Right: JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
				MustCompile(gsql.MustParseExpr("tb + 1"), r, nil),
			},
			Width:        3,
			TemporalIdx:  1,
			MinFutureKey: func(wm uint64) sqlval.Value { return u(wm/60 + 1) },
		},
		Type: jt,
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("tb"), comb, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), comb, nil),
			MustCompile(gsql.MustParseExpr("cnt"), comb, nil),
			MustCompile(gsql.MustParseExpr("cnt2"), comb, nil),
		},
		Out: out,
	}
}

func TestJoinConsecutiveEpochs(t *testing.T) {
	sink := &Collector{}
	j := buildPairsJoin(gsql.JoinInner, sink)
	// Same stream feeds both sides (self-join).
	feed := func(tb, src, cnt uint64) {
		j.LeftIn().Push(Tuple{u(tb), u(src), u(cnt)})
		j.RightIn().Push(Tuple{u(tb), u(src), u(cnt)})
	}
	feed(0, 1, 5) // epoch 0, src 1
	feed(1, 1, 7) // epoch 1, src 1: matches epoch 0 (tb = tb2+1)
	feed(1, 2, 3) // epoch 1, src 2: no epoch-0 partner
	j.LeftIn().Flush()
	j.RightIn().Flush()
	if len(sink.Rows) != 1 {
		t.Fatalf("rows = %v", sink.Rows)
	}
	row := sink.Rows[0]
	// (tb=1, srcIP=1, cnt=7, cnt2=5).
	if !row[0].Equal(u(1)) || !row[1].Equal(u(1)) || !row[2].Equal(u(7)) || !row[3].Equal(u(5)) {
		t.Errorf("row = %v", row)
	}
}

func TestOuterJoinPadding(t *testing.T) {
	sink := &Collector{}
	j := buildPairsJoin(gsql.JoinLeftOuter, sink)
	j.LeftIn().Push(Tuple{u(1), u(9), u(4)}) // no right partner
	j.LeftIn().Flush()
	j.RightIn().Flush()
	if len(sink.Rows) != 1 {
		t.Fatalf("rows = %v", sink.Rows)
	}
	if !sink.Rows[0][3].IsNull() {
		t.Errorf("right side should be NULL-padded: %v", sink.Rows[0])
	}
	// Full outer pads both sides.
	sink2 := &Collector{}
	j2 := buildPairsJoin(gsql.JoinFullOuter, sink2)
	j2.LeftIn().Push(Tuple{u(1), u(9), u(4)})
	j2.RightIn().Push(Tuple{u(5), u(8), u(2)})
	j2.LeftIn().Flush()
	j2.RightIn().Flush()
	if len(sink2.Rows) != 2 {
		t.Fatalf("full outer rows = %v", sink2.Rows)
	}
	// Inner join emits nothing for unmatched rows.
	sink3 := &Collector{}
	j3 := buildPairsJoin(gsql.JoinInner, sink3)
	j3.LeftIn().Push(Tuple{u(1), u(9), u(4)})
	j3.LeftIn().Flush()
	j3.RightIn().Flush()
	if len(sink3.Rows) != 0 {
		t.Errorf("inner join should drop unmatched: %v", sink3.Rows)
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	r := res("ts", "k", "v")
	comb := res("ts", "k", "v", "ts2", "k2", "v2")
	sink := &Collector{}
	j := NewJoin(JoinConfig{
		Left: JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("ts"), r, nil),
				MustCompile(gsql.MustParseExpr("k"), r, nil),
			},
			Width: 3, TemporalIdx: 0,
		},
		Right: JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("ts"), r, nil),
				MustCompile(gsql.MustParseExpr("k"), r, nil),
			},
			Width: 3, TemporalIdx: 0,
		},
		Type:     gsql.JoinInner,
		Residual: MustCompile(gsql.MustParseExpr("v < v2"), comb, nil),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("v"), comb, nil),
			MustCompile(gsql.MustParseExpr("v2"), comb, nil),
		},
		Out: sink,
	})
	j.LeftIn().Push(Tuple{u(1), u(7), u(10)})
	j.RightIn().Push(Tuple{u(1), u(7), u(20)}) // v < v2 passes
	j.RightIn().Push(Tuple{u(1), u(7), u(5)})  // fails residual
	j.LeftIn().Flush()
	j.RightIn().Flush()
	if len(sink.Rows) != 1 || !sink.Rows[0][1].Equal(u(20)) {
		t.Fatalf("rows = %v", sink.Rows)
	}
}

// epochJoin joins tb, k, v rows on (k, tb), tb being the temporal key;
// a side given a watermark promises no future tb below wm/width.
// Output is both sides' columns.
func epochJoin(jt gsql.JoinType, out Consumer, width uint64, leftWM, rightWM bool) *Join {
	r := res("tb", "k", "v")
	comb := res("tb", "k", "v", "tb2", "k2", "v2")
	side := func(wm bool) JoinSideConfig {
		s := JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("k"), r, nil),
				MustCompile(gsql.MustParseExpr("tb"), r, nil),
			},
			Width:       3,
			TemporalIdx: 1,
		}
		if wm {
			s.MinFutureKey = func(wm uint64) sqlval.Value { return u(wm / width) }
		}
		return s
	}
	var projs []EvalFunc
	for _, c := range []string{"tb", "k", "v", "tb2", "k2", "v2"} {
		projs = append(projs, MustCompile(gsql.MustParseExpr(c), comb, nil))
	}
	return NewJoin(JoinConfig{Left: side(leftWM), Right: side(rightWM), Type: jt, Projs: projs, Out: out})
}

func leftPad(tb, k, v uint64) Tuple {
	return Tuple{u(tb), u(k), u(v), sqlval.Null, sqlval.Null, sqlval.Null}
}

func rightPad(tb, k, v uint64) Tuple {
	return Tuple{sqlval.Null, sqlval.Null, sqlval.Null, u(tb), u(k), u(v)}
}

// TestJoinMultiEpochEvictionPadsInOrder closes three epochs with one
// watermark jump and checks the padding comes out in (temporal key,
// key) order — left side before right — whatever order the epochs and
// keys arrived in; entries sharing a key keep their arrival order.
func TestJoinMultiEpochEvictionPadsInOrder(t *testing.T) {
	leftPads := []Tuple{
		leftPad(0, 5, 5), leftPad(0, 7, 7),
		leftPad(1, 5, 15), leftPad(1, 5, 99), leftPad(1, 7, 17),
		leftPad(2, 5, 25), leftPad(2, 7, 27),
	}
	rightPads := []Tuple{rightPad(0, 9, 100), rightPad(1, 9, 101), rightPad(2, 9, 102)}
	for _, tc := range []struct {
		name        string
		jt          gsql.JoinType
		evict, last []Tuple
	}{
		{"left", gsql.JoinLeftOuter, leftPads, []Tuple{leftPad(3, 1, 31)}},
		{"right", gsql.JoinRightOuter, rightPads, []Tuple{rightPad(3, 2, 32)}},
		{"full", gsql.JoinFullOuter, slices.Concat(leftPads, rightPads),
			[]Tuple{leftPad(3, 1, 31), rightPad(3, 2, 32)}},
	} {
		sink := &Collector{}
		j := epochJoin(tc.jt, sink, 60, true, true)
		for _, tb := range []uint64{2, 0, 1} {
			for _, k := range []uint64{7, 3, 5} {
				j.LeftIn().Push(Tuple{u(tb), u(k), u(10*tb + k)})
			}
			j.RightIn().Push(Tuple{u(tb), u(9), u(100 + tb)})
			j.RightIn().Push(Tuple{u(tb), u(3), u(200 + tb)})
		}
		j.LeftIn().Push(Tuple{u(1), u(5), u(99)})
		j.LeftIn().Push(Tuple{u(3), u(1), u(31)})
		j.RightIn().Push(Tuple{u(3), u(2), u(32)})
		const matches = 3 // k=3 in epochs 0..2
		if len(sink.Rows) != matches {
			t.Fatalf("%s: %d rows before any watermark, want %d matches", tc.name, len(sink.Rows), matches)
		}
		j.LeftIn().Advance(59)
		j.RightIn().Advance(59)
		if len(sink.Rows) != matches || j.StoredTuples() != 18 {
			t.Fatalf("%s: a watermark closing no epoch evicted: %d rows, %d stored", tc.name, len(sink.Rows), j.StoredTuples())
		}
		j.LeftIn().Advance(180)
		j.RightIn().Advance(180)
		diffBatches(t, tc.name+" eviction", tc.evict, sink.Rows[matches:])
		if got := j.StoredTuples(); got != 2 {
			t.Errorf("%s: %d tuples stored after closing epochs 0-2, want the 2 of epoch 3", tc.name, got)
		}
		n := len(sink.Rows)
		j.LeftIn().Flush()
		j.RightIn().Flush()
		diffBatches(t, tc.name+" flush", tc.last, sink.Rows[n:])
		if j.StoredTuples() != 0 {
			t.Errorf("%s: %d tuples stored after Flush", tc.name, j.StoredTuples())
		}
	}
}

// TestJoinNilMinFutureKeyDefersEviction: a side without MinFutureKey
// never bounds its future keys, so the opposite side keeps every entry
// until Flush while its own entries are still evicted.
func TestJoinNilMinFutureKeyDefersEviction(t *testing.T) {
	for _, nilLeft := range []bool{true, false} {
		sink := &Collector{}
		j := epochJoin(gsql.JoinFullOuter, sink, 60, !nilLeft, nilLeft)
		var evicted, kept []Tuple
		for tb := uint64(0); tb < 10; tb++ {
			j.LeftIn().Push(Tuple{u(tb), u(1), u(tb)})
			j.RightIn().Push(Tuple{u(tb), u(2), u(tb)})
			j.LeftIn().Advance((tb + 1) * 60)
			j.RightIn().Advance((tb + 1) * 60)
			if nilLeft {
				evicted, kept = append(evicted, leftPad(tb, 1, tb)), append(kept, rightPad(tb, 2, tb))
			} else {
				evicted, kept = append(evicted, rightPad(tb, 2, tb)), append(kept, leftPad(tb, 1, tb))
			}
		}
		name := fmt.Sprintf("nilLeft=%v", nilLeft)
		diffBatches(t, name+" before flush", evicted, sink.Rows)
		if got := j.StoredTuples(); got != 10 {
			t.Errorf("%s: %d stored, want the 10 entries awaiting Flush", name, got)
		}
		j.LeftIn().Flush()
		j.RightIn().Flush()
		diffBatches(t, name+" flush", kept, sink.Rows[len(evicted):])
	}
}

// TestJoinEvictionBoundsState drives the cross-epoch tb = tb2 + 1
// self-join through 50 epochs: every pair and padded row appears, and
// the stored state never exceeds one epoch of right-side rows.
func TestJoinEvictionBoundsState(t *testing.T) {
	const epochs, srcs = 50, 6
	present := func(e, s uint64) bool { return (s*7+e*3)%4 != 0 }
	cnt := func(e, s uint64) uint64 { return e*10 + s }
	for _, jt := range []gsql.JoinType{gsql.JoinInner, gsql.JoinFullOuter} {
		sink := &Collector{}
		j := buildPairsJoin(jt, sink)
		var want []Tuple
		for e := uint64(0); e < epochs; e++ {
			for s := uint64(0); s < srcs; s++ {
				if !present(e, s) {
					continue
				}
				j.LeftIn().Push(Tuple{u(e), u(s), u(cnt(e, s))})
				j.RightIn().Push(Tuple{u(e), u(s), u(cnt(e, s))})
				switch {
				case e > 0 && present(e-1, s):
					want = append(want, Tuple{u(e), u(s), u(cnt(e, s)), u(cnt(e-1, s))})
				case jt == gsql.JoinFullOuter:
					want = append(want, Tuple{u(e), u(s), u(cnt(e, s)), sqlval.Null})
				}
				if jt == gsql.JoinFullOuter && !(e+1 < epochs && present(e+1, s)) {
					want = append(want, Tuple{sqlval.Null, sqlval.Null, sqlval.Null, u(cnt(e, s))})
				}
			}
			j.LeftIn().Advance((e + 1) * 60)
			j.RightIn().Advance((e + 1) * 60)
			if got := j.StoredTuples(); got > srcs {
				t.Fatalf("jt=%v epoch %d: %d tuples stored, want at most one epoch (%d)", jt, e, got, srcs)
			}
		}
		j.LeftIn().Flush()
		j.RightIn().Flush()
		if !sameRowSet(sink.Rows, want) {
			t.Errorf("jt=%v: rows differ from the %d expected\n got %v\nwant %v", jt, len(want), sink.Rows, want)
		}
	}
}

// TestJoinTemporalKeysCompareEqualButEncodeApart: temporal key values
// that compare equal share an epoch bucket, but only equal encodings
// join. Uint 2^63 and float 2^63 compare equal and encode apart; int 5
// and uint 5 share one encoding and do join.
func TestJoinTemporalKeysCompareEqualButEncodeApart(t *testing.T) {
	r := res("ts", "v")
	comb := res("ts", "v", "ts2", "v2")
	big := uint64(1) << 63
	for _, tc := range []struct {
		name string
		a, b sqlval.Value
		want []Tuple
	}{
		{"uint-float", sqlval.Uint(big), sqlval.Float(float64(big)),
			[]Tuple{{u(3), u(2)}, {u(1), sqlval.Null}}},
		{"int-uint", sqlval.Int(5), sqlval.Uint(5),
			[]Tuple{{u(1), u(2)}, {u(3), u(2)}}},
	} {
		if tc.a.Compare(tc.b) != 0 {
			t.Fatalf("%s: %v and %v do not compare equal", tc.name, tc.a, tc.b)
		}
		side := JoinSideConfig{
			Keys:  []EvalFunc{MustCompile(gsql.MustParseExpr("ts"), r, nil)},
			Width: 2,
		}
		sink := &Collector{}
		j := NewJoin(JoinConfig{
			Left: side, Right: side, Type: gsql.JoinFullOuter, Out: sink,
			Projs: []EvalFunc{
				MustCompile(gsql.MustParseExpr("v"), r, nil),
				MustCompile(gsql.MustParseExpr("v2"), comb, nil),
			},
		})
		j.LeftIn().Push(Tuple{tc.a, u(1)})
		j.LeftIn().Push(Tuple{tc.b, u(3)})
		j.RightIn().Push(Tuple{tc.b, u(2)})
		j.LeftIn().Flush()
		j.RightIn().Flush()
		diffBatches(t, tc.name, tc.want, sink.Rows)
	}
}

// TestJoinPushPathsAgree feeds the same epochs through the scalar
// Push, the batched PushBatch and the columnar PushCols of a full
// outer cross-epoch join and requires identical rows in identical
// order, padding included.
func TestJoinPushPathsAgree(t *testing.T) {
	r := res("tb", "srcIP", "cnt")
	epochRows := func(e uint64) Batch {
		var b Batch
		for s := uint64(0); s < 9; s++ {
			if (s*5+e*7)%3 != 0 {
				b = append(b, Tuple{u(e), u(s), u(e*100 + s)})
			}
		}
		return b
	}
	paths := []struct {
		name     string
		columnar bool
		push     func(p *joinPort, b Batch)
	}{
		{"Push", false, func(p *joinPort, b Batch) {
			for _, t := range b {
				p.Push(t)
			}
		}},
		{"PushBatch", false, func(p *joinPort, b Batch) { p.PushBatch(b) }},
		{"PushCols", true, func(p *joinPort, b Batch) {
			var cb ColBatch
			if !cb.SetFromRows(b) {
				t.Fatal("SetFromRows failed")
			}
			p.PushCols(&cb)
		}},
	}
	var ref []Tuple
	for _, path := range paths {
		sink := &Collector{}
		cfg := pairsJoinConfig(gsql.JoinFullOuter, sink)
		if path.columnar {
			cfg.Left.ColKeys = []ColExpr{mustCompileCol(t, "srcIP", r, nil), mustCompileCol(t, "tb", r, nil)}
			cfg.Right.ColKeys = []ColExpr{mustCompileCol(t, "srcIP", r, nil), mustCompileCol(t, "tb + 1", r, nil)}
			if !cfg.Left.colKeysReady() || !cfg.Right.colKeysReady() {
				t.Fatal("join keys did not compile to column kernels")
			}
		}
		j := NewJoin(cfg)
		for e := uint64(0); e < 20; e++ {
			path.push(&j.leftPort, epochRows(e))
			path.push(&j.rightPort, epochRows(e))
			if e%3 != 1 { // some watermarks close two epochs at once
				j.LeftIn().Advance((e + 1) * 60)
				j.RightIn().Advance((e + 1) * 60)
			}
		}
		j.LeftIn().Flush()
		j.RightIn().Flush()
		if ref == nil {
			ref = sink.Rows
			continue
		}
		diffBatches(t, path.name, ref, sink.Rows)
	}
}

func TestUnionFlushWaitsForAllPorts(t *testing.T) {
	sink := &Collector{}
	union := NewUnion(3, sink)
	union.Port(0).Push(Tuple{u(1)})
	union.Port(0).Flush()
	union.Port(1).Flush()
	if sink.Flushed {
		t.Fatal("union flushed early")
	}
	union.Port(2).Push(Tuple{u(2)})
	union.Port(2).Flush()
	if !sink.Flushed || len(sink.Rows) != 2 {
		t.Fatalf("flushed=%v rows=%v", sink.Flushed, sink.Rows)
	}
}

func TestUnionMinWatermark(t *testing.T) {
	counter := &advanceCounter{}
	union := NewUnion(2, counter)
	// No forward until every port has advanced.
	union.Port(0).Advance(60)
	if counter.n != 0 {
		t.Fatalf("forwarded before all ports advanced: %d", counter.n)
	}
	union.Port(1).Advance(60)
	if counter.n != 1 || counter.last != 60 {
		t.Fatalf("after both at 60: n=%d last=%d", counter.n, counter.last)
	}
	// One port moving ahead does not raise the minimum.
	union.Port(0).Advance(120)
	if counter.n != 1 {
		t.Fatalf("min should hold at 60: n=%d", counter.n)
	}
	union.Port(1).Advance(120)
	if counter.n != 2 || counter.last != 120 {
		t.Fatalf("after both at 120: n=%d last=%d", counter.n, counter.last)
	}
	// A flushed port stops constraining the minimum.
	union.Port(0).Flush()
	union.Port(1).Advance(180)
	if counter.n != 3 || counter.last != 180 {
		t.Fatalf("flushed port should not hold watermark: n=%d last=%d", counter.n, counter.last)
	}
}

type advanceCounter struct {
	Discard
	n    int
	last uint64
}

func (a *advanceCounter) Advance(wm uint64) { a.n++; a.last = wm }

func TestKeyCollisionFreeProperty(t *testing.T) {
	// Distinct value vectors must produce distinct keys; equal ones
	// identical keys.
	f := func(a, b uint64, s1, s2 string) bool {
		k1 := Key([]sqlval.Value{u(a), sqlval.Str(s1)})
		k2 := Key([]sqlval.Value{u(b), sqlval.Str(s2)})
		if a == b && s1 == s2 {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// String boundaries must not bleed: ("ab","c") != ("a","bc").
	if Key([]sqlval.Value{sqlval.Str("ab"), sqlval.Str("c")}) ==
		Key([]sqlval.Value{sqlval.Str("a"), sqlval.Str("bc")}) {
		t.Error("string boundary collision")
	}
	// Cross-kind equal numerics share keys (grouping equality).
	if Key([]sqlval.Value{u(5)}) != Key([]sqlval.Value{sqlval.Int(5)}) {
		t.Error("uint/int 5 should share a key")
	}
}

func TestTeeDuplicates(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	tee := &Tee{Outs: []Consumer{a, b}}
	tee.Push(Tuple{u(1)})
	tee.Advance(5)
	tee.Flush()
	if len(a.Rows) != 1 || len(b.Rows) != 1 || !a.Flushed || !b.Flushed {
		t.Error("tee did not duplicate")
	}
}

func TestTupleWireSize(t *testing.T) {
	tp := Tuple{u(1), sqlval.Str("abc"), sqlval.Null}
	// 8 header + 9 + 6 + 1.
	if got := tp.WireSize(); got != 24 {
		t.Errorf("WireSize = %d, want 24", got)
	}
}
