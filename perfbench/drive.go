package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/plan"
	"qap/internal/sqlval"
)

// The exec drives call the exec layer's public constructors, kernels
// and codecs directly, from outside the engine, on the workload's own
// packets at the deployment's batch size and round structure: one
// round per distinct timestamp, Advance(t) before the round's batches,
// Flush at the end (the sequential batched engine's order). Each call
// is a span, so a layer's time is measured where its work happens.
// aggConfig and joinConfig follow the cluster runner's buildAggregate
// and buildJoin for a centralized plan; those are unexported, and the
// benchmark changes no program code.

// defaultBatch is the engine's batch size when DeployConfig.BatchSize
// is 0.
const defaultBatch = 256

// driveInput is the workload's packets cut into rounds and batches.
type driveInput struct {
	rows   int
	rounds []driveRound
}

type driveRound struct {
	time uint64
	rows []exec.Batch
	cols []*exec.ColBatch // nil unless the drive is columnar
}

func newDriveInput(packets []netgen.Packet, batch int, columnar bool) *driveInput {
	in := &driveInput{rows: len(packets)}
	slab := make([]sqlval.Value, 0, len(packets)*netgen.TupleCols)
	for lo := 0; lo < len(packets); {
		hi := lo
		for hi < len(packets) && packets[hi].Time == packets[lo].Time {
			hi++
		}
		r := driveRound{time: packets[lo].Time}
		for off := lo; off < hi; off += batch {
			end := off + batch
			if end > hi {
				end = hi
			}
			b := make(exec.Batch, 0, end-off)
			var cb *exec.ColBatch
			if columnar {
				cb = &exec.ColBatch{}
			}
			for _, p := range packets[off:end] {
				var t exec.Tuple
				slab, t = p.AppendTuple(slab)
				b = append(b, t)
				if cb != nil {
					p.AppendCols(cb)
				}
			}
			r.rows = append(r.rows, b)
			if cb != nil {
				r.cols = append(r.cols, cb)
			}
		}
		in.rounds = append(in.rounds, r)
		lo = hi
	}
	return in
}

// countSink counts the rows an operator emits.
type countSink struct{ rows int64 }

func (s *countSink) Push(exec.Tuple)            { s.rows++ }
func (s *countSink) PushBatch(b exec.Batch)     { s.rows += int64(len(b)) }
func (s *countSink) PushCols(cb *exec.ColBatch) { s.rows += int64(cb.Len) }
func (s *countSink) Advance(uint64)             {}
func (s *countSink) Flush()                     {}

// timedCall runs f inside a span and returns its duration.
func (b *bench) timedCall(layer, name string, f func()) time.Duration {
	sp := b.tr.begin(layer, name, -1)
	start := now()
	f()
	d := since(start)
	b.tr.end(sp)
	return d
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sourceFed reports whether every input of n is a base stream.
func sourceFed(n *plan.Node) bool {
	for _, in := range n.Inputs {
		if in.Kind != plan.KindSource {
			return false
		}
	}
	return len(n.Inputs) > 0
}

func colNames(cols []plan.ColDef) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// epochOfWM is the watermark translator of a temporal expression: its
// lineage's base expression evaluated at the watermark.
func epochOfWM(lin plan.Lineage, params exec.Params) (func(uint64) sqlval.Value, error) {
	if lin.Base == nil {
		return nil, nil
	}
	f, err := exec.Compile(lin.Base.Expr, exec.ColsResolver("", []string{lin.Base.Attr}), params)
	if err != nil {
		return nil, err
	}
	return func(wm uint64) sqlval.Value { return f(exec.Tuple{sqlval.Uint(wm)}) }, nil
}

// aggConfig builds the configuration of a full (not split) tumbling
// aggregation of n, as the engine does for a centralized plan.
func aggConfig(n *plan.Node, params exec.Params, columnar bool, out exec.Consumer) (exec.AggregateConfig, error) {
	cfg := exec.AggregateConfig{EpochIdx: n.EpochGroupCol(), Out: out, ColEmit: columnar}
	res := exec.ColsResolver(n.InBind, colNames(n.Inputs[0].OutCols))
	compile := func(e gsql.Expr) (exec.EvalFunc, *exec.ColExpr, error) {
		f, err := exec.Compile(e, res, params)
		if err != nil || !columnar {
			return f, nil, err
		}
		ce, err := exec.CompileCol(e, res, params)
		return f, &ce, err
	}
	if n.PreFilter != nil {
		f, cf, err := compile(n.PreFilter)
		if err != nil {
			return cfg, err
		}
		cfg.PreFilter, cfg.ColPreFilter = f, cf
	}
	for _, g := range n.GroupBy {
		f, cf, err := compile(g.Expr)
		if err != nil {
			return cfg, err
		}
		cfg.GroupBy = append(cfg.GroupBy, f)
		if cf != nil {
			cfg.ColGroupBy = append(cfg.ColGroupBy, *cf)
		}
	}
	if cfg.EpochIdx >= 0 {
		ewm, err := epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr), params)
		if err != nil {
			return cfg, err
		}
		cfg.EpochOfWM = ewm
	}
	rowNames := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		rowNames = append(rowNames, g.Name)
	}
	for _, a := range n.Aggs {
		var arg exec.EvalFunc
		var colArg *exec.ColExpr
		if a.Arg != nil {
			var err error
			if arg, colArg, err = compile(a.Arg); err != nil {
				return cfg, err
			}
		}
		fac, err := exec.NewAccumFactory(a.Spec.Name)
		if err != nil {
			return cfg, err
		}
		cfg.Aggs = append(cfg.Aggs, exec.AggColumn{Factory: fac, Arg: arg})
		if columnar {
			cfg.ColArgs = append(cfg.ColArgs, colArg)
		}
		rowNames = append(rowNames, a.Name)
	}
	rowRes := exec.ColsResolver("", rowNames)
	if n.Having != nil {
		f, err := exec.Compile(n.Having, rowRes, params)
		if err != nil {
			return cfg, err
		}
		cfg.Having = f
	}
	for _, p := range n.Post {
		f, err := exec.Compile(p.Expr, rowRes, params)
		if err != nil {
			return cfg, err
		}
		cfg.Post = append(cfg.Post, f)
	}
	return cfg, nil
}

// aggDrive feeds every source-fed tumbling aggregation of g the
// workload's packets and reports exec.agg.* metrics.
func (b *bench) aggDrive(g *plan.Graph, in *driveInput, params exec.Params, columnar bool, m map[string]float64) error {
	var nodes []*plan.Node
	for _, n := range g.QueryNodes() {
		if n.Kind == plan.KindAggregate && n.WindowPanes <= 1 && sourceFed(n) {
			nodes = append(nodes, n)
		}
	}
	m["exec.agg.push_ns_per_row"], m["exec.agg.advance_ns_per_call"] = 0, 0
	m["exec.agg.flush_s"], m["exec.agg.allocs_per_row"], m["exec.agg.group_high_water"] = 0, 0, 0
	if len(nodes) == 0 {
		return nil
	}
	sp := b.tr.begin("exec.agg", "drive", -1)
	defer b.tr.end(sp)
	aggs := make([]*exec.Aggregate, len(nodes))
	for i, n := range nodes {
		cfg, err := aggConfig(n, params, columnar, &countSink{})
		if err != nil {
			return fmt.Errorf("aggregate %s: %w", n.QueryName, err)
		}
		b.timedCall("exec.agg", "exec.NewAggregate", func() { aggs[i] = exec.NewAggregate(cfg) })
	}
	var push, adv, flush time.Duration
	advances := 0
	m0 := mallocs()
	for _, r := range in.rounds {
		for _, a := range aggs {
			adv += b.timedCall("exec.agg", "Aggregate.Advance", func() { a.Advance(r.time) })
			advances++
			if columnar {
				for _, cb := range r.cols {
					push += b.timedCall("exec.agg", "Aggregate.PushCols", func() { a.PushCols(cb) })
				}
			} else {
				for _, rb := range r.rows {
					push += b.timedCall("exec.agg", "Aggregate.PushBatch", func() { a.PushBatch(rb) })
				}
			}
		}
	}
	high := 0
	for _, a := range aggs {
		high += a.GroupHighWater()
		flush += b.timedCall("exec.agg", "Aggregate.Flush", a.Flush)
	}
	allocs := mallocs() - m0
	rows := float64(in.rows) * float64(len(aggs))
	m["exec.agg.push_ns_per_row"] = float64(push.Nanoseconds()) / rows
	m["exec.agg.advance_ns_per_call"] = float64(adv.Nanoseconds()) / float64(advances)
	m["exec.agg.flush_s"] = flush.Seconds()
	m["exec.agg.allocs_per_row"] = float64(allocs) / rows
	m["exec.agg.group_high_water"] = float64(high)
	return nil
}

// joinResolver resolves column references over a join's combined
// left++right row, qualified or not.
func joinResolver(leftBind string, left []string, rightBind string, right []string) exec.Resolver {
	return func(ref *gsql.ColumnRef) (int, error) {
		found := -1
		for i, nm := range left {
			if strings.EqualFold(nm, ref.Name) && (ref.Qualifier == "" || strings.EqualFold(ref.Qualifier, leftBind)) {
				found = i
			}
		}
		for i, nm := range right {
			if strings.EqualFold(nm, ref.Name) && (ref.Qualifier == "" || strings.EqualFold(ref.Qualifier, rightBind)) {
				if found >= 0 {
					return 0, fmt.Errorf("ambiguous column %s", ref)
				}
				found = len(left) + i
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("unknown column %s", ref)
		}
		return found, nil
	}
}

// joinConfig builds the configuration of n's symmetric hash join and
// returns the side filters the engine interposes on its ports.
func joinConfig(n *plan.Node, params exec.Params, out exec.Consumer) (exec.JoinConfig, [2]exec.EvalFunc, error) {
	var filters [2]exec.EvalFunc
	leftNames, rightNames := colNames(n.Inputs[0].OutCols), colNames(n.Inputs[1].OutCols)
	leftRes := exec.ColsResolver(n.LeftBind, leftNames)
	rightRes := exec.ColsResolver(n.RightBind, rightNames)
	cfg := exec.JoinConfig{Type: n.JoinType, Out: out}
	cfg.Left.Width, cfg.Right.Width = len(leftNames), len(rightNames)
	cfg.Left.TemporalIdx, cfg.Right.TemporalIdx = n.TemporalKey, n.TemporalKey
	for i := range n.LeftKeys {
		lf, err := exec.Compile(n.LeftKeys[i], leftRes, params)
		if err != nil {
			return cfg, filters, err
		}
		rf, err := exec.Compile(n.RightKeys[i], rightRes, params)
		if err != nil {
			return cfg, filters, err
		}
		cfg.Left.Keys = append(cfg.Left.Keys, lf)
		cfg.Right.Keys = append(cfg.Right.Keys, rf)
	}
	var err error
	if cfg.Left.MinFutureKey, err = epochOfWM(n.SideLineage(0, n.LeftKeys[n.TemporalKey]), params); err != nil {
		return cfg, filters, err
	}
	if cfg.Right.MinFutureKey, err = epochOfWM(n.SideLineage(1, n.RightKeys[n.TemporalKey]), params); err != nil {
		return cfg, filters, err
	}
	comb := joinResolver(n.LeftBind, leftNames, n.RightBind, rightNames)
	if n.Residual != nil {
		if cfg.Residual, err = exec.Compile(n.Residual, comb, params); err != nil {
			return cfg, filters, err
		}
	}
	for _, p := range n.JoinProjs {
		f, err := exec.Compile(p.Expr, comb, params)
		if err != nil {
			return cfg, filters, err
		}
		cfg.Projs = append(cfg.Projs, f)
	}
	for side, e := range []gsql.Expr{n.LeftFilter, n.RightFilter} {
		if e == nil {
			continue
		}
		res := leftRes
		if side == 1 {
			res = rightRes
		}
		if filters[side], err = exec.Compile(e, res, params); err != nil {
			return cfg, filters, err
		}
	}
	return cfg, filters, nil
}

// joinDrive feeds every source-fed join of g the workload's packets on
// both ports and reports exec.join.* metrics.
func (b *bench) joinDrive(g *plan.Graph, in *driveInput, params exec.Params, m map[string]float64) error {
	var nodes []*plan.Node
	for _, n := range g.QueryNodes() {
		if n.Kind == plan.KindJoin && sourceFed(n) {
			nodes = append(nodes, n)
		}
	}
	m["exec.join.push_ns_per_row"], m["exec.join.advance_ns_per_call"] = 0, 0
	m["exec.join.stored_peak"], m["exec.join.out_per_in"] = 0, 0
	if len(nodes) == 0 {
		return nil
	}
	sp := b.tr.begin("exec.join", "drive", -1)
	defer b.tr.end(sp)
	joins := make([]*exec.Join, len(nodes))
	ports := make([][2]exec.Consumer, len(nodes))
	sink := &countSink{}
	for i, n := range nodes {
		cfg, filters, err := joinConfig(n, params, sink)
		if err != nil {
			return fmt.Errorf("join %s: %w", n.QueryName, err)
		}
		b.timedCall("exec.join", "exec.NewJoin", func() { joins[i] = exec.NewJoin(cfg) })
		ports[i] = [2]exec.Consumer{joins[i].LeftIn(), joins[i].RightIn()}
		for side, f := range filters {
			if f != nil {
				ports[i][side] = &exec.FilterProject{Filter: f, Out: ports[i][side]}
			}
		}
	}
	var push, adv time.Duration
	advances, peak := 0, 0
	for _, r := range in.rounds {
		for i := range joins {
			for _, p := range ports[i] {
				adv += b.timedCall("exec.join", "Join.Advance", func() { p.Advance(r.time) })
				advances++
			}
			for _, rb := range r.rows {
				for _, p := range ports[i] {
					push += b.timedCall("exec.join", "Join.PushBatch", func() { exec.PushAll(p, rb) })
				}
			}
		}
		stored := 0
		for _, j := range joins {
			stored += j.StoredTuples()
		}
		if stored > peak {
			peak = stored
		}
	}
	for i := range joins {
		for _, p := range ports[i] {
			b.timedCall("exec.join", "Join.Flush", p.Flush)
		}
	}
	rowsIn := float64(in.rows) * 2 * float64(len(joins))
	m["exec.join.push_ns_per_row"] = float64(push.Nanoseconds()) / rowsIn
	m["exec.join.advance_ns_per_call"] = float64(adv.Nanoseconds()) / float64(advances)
	m["exec.join.stored_peak"] = float64(peak)
	m["exec.join.out_per_in"] = float64(sink.rows) / rowsIn
	return nil
}

// pivotDrive pivots every batch rows-to-columns and back, the
// conversions the engine makes where rows cross into columnar
// operators or out to a row-wise codec.
func (b *bench) pivotDrive(in *driveInput, m map[string]float64) {
	sp := b.tr.begin("exec.pivot", "drive", -1)
	defer b.tr.end(sp)
	var cb exec.ColBatch
	var rows exec.Batch
	var toCols, toRows time.Duration
	for _, r := range in.rounds {
		for _, rb := range r.rows {
			toCols += b.timedCall("exec.pivot", "ColBatch.SetFromRows", func() { cb.SetFromRows(rb) })
			toRows += b.timedCall("exec.pivot", "ColBatch.AppendRows", func() { rows = cb.AppendRows(rows[:0]) })
		}
	}
	m["exec.pivot.to_cols_ns_per_row"] = float64(toCols.Nanoseconds()) / float64(in.rows)
	m["exec.pivot.to_rows_ns_per_row"] = float64(toRows.Nanoseconds()) / float64(in.rows)
}

// wireDrive encodes every batch with the live transport's batch codec
// and decodes it back.
func (b *bench) wireDrive(in *driveInput, m map[string]float64) error {
	sp := b.tr.begin("exec.wire", "drive", -1)
	defer b.tr.end(sp)
	var frames [][]byte
	var enc, dec time.Duration
	var buf []byte
	size := 0
	for _, r := range in.rounds {
		for _, rb := range r.rows {
			enc += b.timedCall("exec.wire", "exec.AppendBatchWire", func() { buf = exec.AppendBatchWire(buf[:0], rb) })
			size += len(buf)
			frames = append(frames, append([]byte(nil), buf...))
		}
	}
	var derr error
	m0 := mallocs()
	for _, f := range frames {
		dec += b.timedCall("exec.wire", "exec.DecodeBatchWire", func() {
			if _, err := exec.DecodeBatchWire(f); err != nil && derr == nil {
				derr = err
			}
		})
	}
	allocs := mallocs() - m0
	if derr != nil {
		return fmt.Errorf("wire decode: %w", derr)
	}
	rows := float64(in.rows)
	m["exec.wire.encode_ns_per_row"] = float64(enc.Nanoseconds()) / rows
	m["exec.wire.decode_ns_per_row"] = float64(dec.Nanoseconds()) / rows
	m["exec.wire.bytes_per_row"] = float64(size) / rows
	m["exec.wire.decode_allocs_per_row"] = float64(allocs) / rows
	return nil
}
