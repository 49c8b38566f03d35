package exec

import (
	"fmt"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// fillJoin stores n tuples of epoch tb in j, half per side, every key
// distinct within a side.
func fillJoin(j *Join, n int, tb uint64) {
	b := make(Batch, 0, n/2)
	for k := 0; k < n/2; k++ {
		b = append(b, Tuple{u(tb), u(uint64(k)), u(1)})
	}
	j.leftPort.PushBatch(b)
	j.rightPort.PushBatch(b)
}

// BenchmarkJoinAdvance times one watermark on a join holding 1k and
// 100k tuples: "no-close" moves the watermark inside the open epoch
// and must cost the same at either size; "close" evicts the whole
// stored epoch, the refill running with the timer stopped.
func BenchmarkJoinAdvance(b *testing.B) {
	for _, stored := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("stored=%d/no-close", stored), func(b *testing.B) {
			const width = 1 << 40
			j := epochJoin(gsql.JoinInner, Discard{}, width, true, true)
			fillJoin(j, stored, 1)
			wm := uint64(width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wm++
				j.LeftIn().Advance(wm)
			}
		})
		b.Run(fmt.Sprintf("stored=%d/close", stored), func(b *testing.B) {
			j := epochJoin(gsql.JoinInner, Discard{}, 60, true, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fillJoin(j, stored, uint64(i))
				b.StartTimer()
				j.LeftIn().Advance(uint64(i+1) * 60)
			}
		})
	}
}

// BenchmarkJoinPushBatch drives the cross-epoch pairs self-join the
// way an engine does: per op, one 256-tuple batch of a new epoch into
// each side, then the watermark that closes the previous epoch. Row
// construction (two allocations per batch) is included.
func BenchmarkJoinPushBatch(b *testing.B) {
	const batch = 256
	j := buildPairsJoin(gsql.JoinInner, Discard{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := uint64(i)
		vals := make([]sqlval.Value, 3*batch)
		rows := make(Batch, batch)
		for s := range rows {
			r := vals[3*s : 3*s+3 : 3*s+3]
			r[0], r[1], r[2] = u(tb), u(uint64(s)), u(1)
			rows[s] = r
		}
		j.leftPort.PushBatch(rows)
		j.rightPort.PushBatch(rows)
		j.LeftIn().Advance((tb + 1) * 60)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*batch*b.N), "ns/row")
}
