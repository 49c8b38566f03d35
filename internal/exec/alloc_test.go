package exec

import (
	"fmt"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// Committed allocation budgets for the hot path, in allocations per
// operation as measured by testing.AllocsPerRun. A change that pushes
// a measured value above its budget is an allocation regression on the
// batched execution path and should be either fixed or justified by
// raising the budget here with a comment.
const (
	// Key materializes a fresh string per call: the []byte encoding
	// plus the string copy (append growth can add one more).
	allocBudgetKey = 4
	// AppendKey into a warmed buffer is allocation-free.
	allocBudgetAppendKeySteady = 0
	// FilterProject.PushBatch per input tuple: the whole batch shares
	// one projection backing array, so the per-tuple share of a
	// 64-tuple batch stays far below one.
	allocBudgetFilterProjectPerTuple = 0.1
	// Aggregate's batched path per input tuple in the steady state
	// (every group already exists): the key encodes into a reused
	// buffer and the map is probed without materializing a string, so
	// per-tuple allocations round to zero.
	allocBudgetAggregatePerTupleSteady = 0.02
)

// skipIfRace skips allocation-count assertions under the race
// detector, whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestAllocsKey(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	var s string
	got := testing.AllocsPerRun(100, func() { s = Key(vals) })
	if got > allocBudgetKey {
		t.Errorf("Key: %.2f allocs/op, budget %d", got, allocBudgetKey)
	}
	_ = s
}

func TestAllocsAppendKeySteadyState(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	buf := AppendKey(nil, vals) // warm the buffer to full size
	got := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], vals) })
	if got > allocBudgetAppendKeySteady {
		t.Errorf("AppendKey into warm buffer: %.2f allocs/op, budget %d",
			got, allocBudgetAppendKeySteady)
	}
}

func TestAllocsFilterProjectBatch(t *testing.T) {
	skipIfRace(t)
	r := res("time", "srcIP", "len")
	op := &FilterProject{
		Filter: MustCompile(gsql.MustParseExpr("len > 10"), r, nil),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP & 0xFF00"), r, nil),
		},
		Out: Discard{},
	}
	const n = 64
	b := make(Batch, n)
	for i := range b {
		b[i] = Tuple{u(uint64(i)), u(0xABCD), u(uint64(5 + i))} // ~90% pass the filter
	}
	perBatch := testing.AllocsPerRun(100, func() { op.PushBatch(b) })
	if perTuple := perBatch / n; perTuple > allocBudgetFilterProjectPerTuple {
		t.Errorf("FilterProject.PushBatch: %.3f allocs/tuple (%.1f per %d-tuple batch), budget %.3f",
			perTuple, perBatch, n, allocBudgetFilterProjectPerTuple)
	}
}

func TestAllocsAggregateBatchSteadyState(t *testing.T) {
	skipIfRace(t)
	agg := buildFlowsAgg(Discard{})
	// 64 tuples spread over 16 groups, all in epoch 0.
	const n = 64
	b := make(Batch, n)
	for i := range b {
		b[i] = Tuple{u(uint64(i % 50)), u(uint64(i % 16)), u(2), u(100)}
	}
	agg.PushBatch(b) // create every group up front
	perBatch := testing.AllocsPerRun(100, func() { agg.PushBatch(b) })
	if perTuple := perBatch / n; perTuple > allocBudgetAggregatePerTupleSteady {
		t.Errorf("Aggregate.PushBatch steady state: %.4f allocs/tuple (%.1f per %d-tuple batch), budget %.4f",
			perTuple, perBatch, n, allocBudgetAggregatePerTupleSteady)
	}
	if agg.GroupCount() != 16 {
		t.Fatalf("expected 16 groups, got %d", agg.GroupCount())
	}
}

// TestAllocsJoinAdvanceNoClose: a watermark that closes no epoch
// leaves the stored tuples untouched, so it allocates nothing however
// much state the join holds.
func TestAllocsJoinAdvanceNoClose(t *testing.T) {
	skipIfRace(t)
	const stored = 10000
	j := epochJoin(gsql.JoinFullOuter, Discard{}, 60, true, true)
	fillJoin(j, stored, 1)
	wm := uint64(60) // boundary 1: epoch 1 stays open for 60 watermarks
	got := testing.AllocsPerRun(50, func() {
		wm++
		j.LeftIn().Advance(wm)
	})
	if got != 0 {
		t.Errorf("Join.Advance closing no epoch over %d stored tuples: %.2f allocs/op, want 0", stored, got)
	}
	if n := j.StoredTuples(); n != stored {
		t.Fatalf("stored tuples = %d, want %d", n, stored)
	}
}

// TestAllocsReport prints the measured values next to their budgets so
// a budget bump has numbers to cite; it never fails.
func TestAllocsReport(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	var s string
	key := testing.AllocsPerRun(100, func() { s = Key(vals) })
	_ = s
	buf := AppendKey(nil, vals)
	ak := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], vals) })
	t.Log(fmt.Sprintf("Key: %.2f allocs/op (budget %d); AppendKey steady: %.2f (budget %d)",
		key, allocBudgetKey, ak, allocBudgetAppendKeySteady))
}
