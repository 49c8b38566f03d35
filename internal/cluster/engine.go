package cluster

// The drive loop and the engines' deliveries.
//
// Every engine replays the input in one canonical order, the paper's
// splitter (Section 3.3): rounds of distinct timestamps, each round
// advancing every fed stream's partitions (cursor order x partition
// order) and then delivering the round's packets in merged arrival
// order, with a final flush round over every router in sorted-name
// order. "Partitioned == centralized" is defined over that order, so
// it is written once:
//
//   - roundSource is the one drive loop. It merges the input cursors,
//     cuts a round at every new timestamp, routes each packet, and
//     groups the round's packets per destination into live.Round
//     values, one list per lane. It records the splitter's trace
//     rounds and hands the closed rounds to a per-engine delivery.
//
//   - islandExec is the one round executor: window closes, advances,
//     group deliveries, and flushes, each stamped with its canonical
//     (round, tag) so island-crossing captures record them.
//
// The deliveries are all that differ between engines:
//
//   - Sequential (runSequential): one lane over every destination,
//     executed inline at each round close by a single executor that
//     spans every island. Columnar runs buffer the packets straight
//     into column batches.
//
//   - Parallel (runParallel): one lane per leaf island, shipped over a
//     bounded channel every batchRounds rounds to one worker goroutine
//     per min(Workers, Hosts) (worker g owns islands g, g+W, ...).
//     Deliveries that cross into the central island are not executed
//     by the worker but recorded as tagged linkItems (the capture
//     consumer) and shipped to the central inbox. Every processed feed
//     message emits a linkBatch — even when empty — so the central
//     watermark advances. The optimizer only builds plans whose
//     island-crossing dataflow points into the central island;
//     parallelizable() verifies this and otherwise the Runner falls
//     back to the sequential engine.
//
//   - Live (runLive, live.go): the parallel engine's lanes serialized
//     over TCP to nodes that run the same executor.
//
// The central replay loop (replayLinks), on the calling goroutine,
// K-way-merges the islands' linkItems by (round, tag) and applies them
// to the central operators. A tag identifies one splitter action
// (advance, push, or flush), every action's cascade runs on exactly one
// island, and each island emits its items in canonical order — so the
// merge reconstructs the sequential delivery order exactly. Per-island
// "through" watermarks (the last fully shipped round) gate the merge:
// an item is applied only once every island has shipped past its round.
//
// Accounting is sharded per island in every engine and merged in a
// fixed order by finalize(), so floating-point sums group identically
// and parallel results are byte-identical to sequential ones.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/sqlval"
)

// defaultBatchRounds is how many watermark rounds the driver coalesces
// into one channel message when RunConfig.BatchRounds is unset. Rounds
// are small (a handful of packets at typical trace rates), so batching
// amortizes channel synchronization across the pipeline.
const defaultBatchRounds = 32

// defaultBatchSize is the execution batch size when RunConfig.BatchSize
// is unset: batch-at-a-time execution is the default hot path.
const defaultBatchSize = 256

// feedChanCap bounds each worker's feed channel: the driver may run at
// most this many messages ahead of a worker, which also bounds the
// central replay loop's pending queues.
const feedChanCap = 2

// testStallWorkers, when non-nil, blocks every worker just before it
// ships a link batch until the channel is closed — the test harness for
// the DriveTimeout guard (a wedged worker must surface as a positioned
// error, not a hang). Set and cleared only between runs; runParallel
// reads it once at start.
var testStallWorkers chan struct{}

// Canonical tags. Within one round the sequential engine performs
// watermark advances (cursor order x partition order), then tuple
// pushes (merged arrival order), then — in the one flush round — router
// flushes (sorted-name order x partition order). The tag encodes
// phase<<48 | key so that tag order within a round equals execution
// order, and every tag maps to exactly one island.
const (
	phaseAdv   = uint64(0) << 48
	phasePush  = uint64(1) << 48
	phaseFlush = uint64(2) << 48
)

type linkKind uint8

const (
	itemPush linkKind = iota
	itemPushBatch
	itemAdvance
	itemFlush
)

// linkItem is one captured delivery across an island boundary.
type linkItem struct {
	round int
	tag   uint64
	kind  linkKind
	e     *edge
	t     exec.Tuple
	b     exec.Batch
	wm    uint64
	// mwm is the producing round's watermark (the flush round inherits
	// the last data round's), stamped on every item so the central
	// replay closes monitoring windows at the same trace times the
	// sequential engine does. Distinct from wm: an advance cascade may
	// forward a different watermark than the round's.
	mwm uint64
}

// linkBatch ships an island's captured deliveries for a range of
// rounds. through is the last round fully contained in the batch; done
// marks the island's final batch.
type linkBatch struct {
	isl     int
	through int
	done    bool
	items   []linkItem
}

// capture replaces an island-crossing edge on the producing island: it
// records the delivery instead of performing it. The central replay
// loop applies the recorded items in canonical order.
type capture struct {
	isl *island
	e   *edge
}

func (c *capture) Push(t exec.Tuple) {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPush, e: c.e, t: t,
		mwm: c.isl.curWM,
	})
}

// PushBatch records a produced batch as a single link item, so the
// central replay applies it through edge.PushBatch over exactly the
// batch boundaries the producing operator emitted — the same
// boundaries the sequential engine cascades inline. The container is
// copied into a pooled batch because producers reuse their emission
// buffers across epochs; the tuples themselves are immutable once
// emitted, so only the container needs to survive until replay.
func (c *capture) PushBatch(b exec.Batch) {
	if len(b) == 0 {
		return
	}
	cp := append(exec.GetBatch(), b...)
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPushBatch, e: c.e, b: cp,
		mwm: c.isl.curWM,
	})
}

// PushCols records a columnar delivery as a row link item: the batch
// pivots to durable rows here on the producing island (the columns are
// only valid during the call), so the link format, the wire codec, and
// the central replay stay row-oriented and untouched. The central
// replay then applies the item through edge.PushBatch — observably
// identical to the columnar delivery by the ColConsumer contract.
func (c *capture) PushCols(cb *exec.ColBatch) {
	if cb.Len == 0 {
		return
	}
	b := cb.AppendRows(exec.GetBatch())
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPushBatch, e: c.e, b: b,
		mwm: c.isl.curWM,
	})
}

func (c *capture) Advance(wm uint64) {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemAdvance, e: c.e, wm: wm,
		mwm: c.isl.curWM,
	})
}

func (c *capture) Flush() {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemFlush, e: c.e,
		mwm: c.isl.curWM,
	})
}

// tagged is a pre-resolved consumer with its canonical tag.
type tagged struct {
	tag uint64
	c   exec.Consumer
}

// tupleSlabVals sizes the shared tuple-backing slabs the drive loop
// carves packet tuples from (512 packets per slab).
const tupleSlabVals = 512 * netgen.TupleCols

// roundSource is the splitter and the one drive loop every engine
// shares. It buffers each round's packets in the destination's lane as
// live.Group values: at BatchSize > 1 one group per destination
// partition, tagged with the round-local sequence of its first packet;
// at BatchSize 1 maximal same-destination runs of consecutive packets,
// which the executor re-expands into per-tuple tags. Either way the tag
// order within a lane is the sequential delivery order.
type roundSource struct {
	r       *Runner
	cursors []*streamCursor
	bs      int
	// lanes[l] holds lane l's pending rounds; the last one is open.
	lanes [][]live.Round
	// every is how many closed rounds accumulate before ship hands each
	// lane's pending rounds to the engine's delivery; ship runs once
	// more at the end with last set, ending with the flush round.
	every int
	ship  func(lane int, rounds []live.Round, last bool) error
	// keep marks deliveries that are done with the rounds when ship
	// returns, so the lanes' round and group storage is reused.
	keep bool

	// hdr[l] backs lane l's runs at BatchSize 1: a lane's runs are
	// consecutive segments of its tuples, so the lane's open run is
	// always the tail of hdr[l].
	hdr [][]exec.Tuple

	// cols, when set, buffers the packets as columns instead of tuples:
	// cols[s][p] holds stream s's partition-p packets of the open round
	// (the round's groups then carry no tuples). routeBuf is the hash
	// routing scratch those packets are materialized into.
	cols     [][]*exec.ColBatch
	routeBuf []sqlval.Value

	// Tuple slabs. With reuse (plans that sever scan-tuple aliases, see
	// scanTuplesSevered, on a delivery that executes inline) a slab
	// exhausted mid-round only holds tuples of rounds that are pending
	// or already delivered, so once they ship it is recycled instead of
	// left to the collector.
	valSlab     []sqlval.Value
	reuse       bool
	spent, free [][]sqlval.Value

	round int    // the open round, -1 before the first packet
	seq   uint64 // round-local packet sequence
	wm    uint64 // the last data round's watermark: the trace's max time
}

// newRoundSource prepares the cursors' routing scratch for a drive
// over the given number of lanes: one lane holds every destination,
// more hold each destination in the lane of its leaf island.
func (r *Runner) newRoundSource(cursors []*streamCursor, lanes, every int) *roundSource {
	for _, c := range cursors {
		n := len(c.rt.outs)
		c.lane, c.gidx, c.gstamp = make([]int, n), make([]int, n), make([]int, n)
		for p := range c.gstamp {
			c.gstamp[p] = -1
			if lanes > 1 {
				c.lane[p] = c.rt.islands[p]
			}
		}
	}
	return &roundSource{r: r, cursors: cursors, bs: r.batchSize, every: every, round: -1,
		lanes: make([][]live.Round, lanes), hdr: make([][]exec.Tuple, lanes)}
}

// run drives the whole trace, data rounds then the flush round, and
// returns the first delivery error.
//
//qap:hot
func (s *roundSource) run() error {
	for {
		c := nextCursor(s.cursors)
		if c == nil {
			break
		}
		pk := &c.packets[c.pos]
		c.pos++
		if s.round < 0 || pk.Time > s.wm {
			if s.round >= 0 {
				s.traceRound()
				if len(s.lanes[0]) >= s.every {
					if err := s.shipAll(false); err != nil {
						return err
					}
				}
			}
			s.wm = pk.Time
			s.open(live.Round{WM: pk.Time, Adv: true})
		}
		s.add(c, pk)
	}
	if s.round >= 0 {
		s.traceRound()
	}
	if s.r.trDriver != nil {
		s.r.trDriver.Emit(trace.Event{Kind: trace.KindFlush, Round: s.round + 1, WM: s.wm})
	}
	s.open(live.Round{Flush: true})
	return s.shipAll(true)
}

// traceRound closes the open data round on the splitter's trace shard:
// the same (round, watermark, packets) triple on every engine.
func (s *roundSource) traceRound() {
	if s.r.trDriver != nil {
		s.r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: s.round, WM: s.wm, Rows: int64(s.seq)})
	}
}

// fed reports, once run has returned, whether any packet was driven:
// the flush round then follows at least one data round.
func (s *roundSource) fed() bool { return s.round > 0 }

// open starts the next round on every lane, reusing a kept lane's
// spare group storage.
func (s *roundSource) open(rd live.Round) {
	s.round++
	s.seq = 0
	s.r.engRounds++
	rd.Round = s.round
	for l, rs := range s.lanes {
		rd.Groups = nil
		if n := len(rs); n < cap(rs) {
			rd.Groups = rs[:n+1][n].Groups[:0]
		}
		s.lanes[l] = append(rs, rd)
	}
}

// add routes one packet and buffers it in its destination's group of
// the open round.
//
//qap:hot
func (s *roundSource) add(c *streamCursor, pk *netgen.Packet) {
	var t exec.Tuple
	var p int
	switch {
	case s.cols != nil && c.rt.hashFns == nil:
		p = c.rt.route(nil) // round-robin routing never reads the tuple
	case s.cols != nil:
		s.routeBuf, t = pk.AppendTuple(s.routeBuf[:0])
		p = c.rt.route(t)
	default:
		if cap(s.valSlab)-len(s.valSlab) < netgen.TupleCols {
			s.grow()
		}
		s.valSlab, t = pk.AppendTuple(s.valSlab)
		p = c.rt.route(t)
	}
	l := c.lane[p]
	rs := s.lanes[l]
	rd := &rs[len(rs)-1]
	tag := phasePush | s.seq
	s.seq++
	if s.bs == 1 {
		// A run: extend the lane's last group if this packet continues
		// it, else open a new one.
		h := append(s.hdr[l], t)
		s.hdr[l] = h
		if n := len(rd.Groups); n > 0 {
			if g := &rd.Groups[n-1]; g.Stream == c.idx && g.Part == p && g.Tag+uint64(len(g.Tuples)) == tag {
				g.Tuples = h[len(h)-1-len(g.Tuples):]
				return
			}
		}
		rd.Groups = append(rd.Groups, live.Group{Tag: tag, Stream: c.idx, Part: p, Tuples: h[len(h)-1:]})
		return
	}
	// One group per destination and round, tagged with its first packet.
	if s.cols != nil {
		if c.gstamp[p] != s.round {
			c.gstamp[p] = s.round
			rd.Groups = append(rd.Groups, live.Group{Tag: tag, Stream: c.idx, Part: p})
		}
		pk.AppendCols(s.cols[c.idx][p])
		return
	}
	if c.gstamp[p] != s.round {
		c.gstamp[p] = s.round
		c.gidx[p] = len(rd.Groups)
		rd.Groups = append(rd.Groups, live.Group{Tag: tag, Stream: c.idx, Part: p, Tuples: exec.GetBatch()})
	}
	g := &rd.Groups[c.gidx[p]]
	g.Tuples = append(g.Tuples, t)
}

// grow replaces the exhausted tuple slab, recycling a free one when
// the delivery allows it.
func (s *roundSource) grow() {
	if s.reuse && cap(s.valSlab) > 0 {
		s.spent = append(s.spent, s.valSlab)
	}
	if n := len(s.free); n > 0 {
		s.valSlab = s.free[n-1][:0]
		s.free = s.free[:n-1]
		return
	}
	s.valSlab = make([]sqlval.Value, 0, tupleSlabVals)
}

// shipAll hands every lane's pending rounds to the delivery, then
// frees the slabs those rounds used.
func (s *roundSource) shipAll(last bool) error {
	for l, rs := range s.lanes {
		if err := s.ship(l, rs, last); err != nil {
			return err
		}
		if s.keep {
			s.lanes[l], s.hdr[l] = rs[:0], s.hdr[l][:0]
		} else {
			s.lanes[l], s.hdr[l] = nil, nil
		}
	}
	s.free = append(s.free, s.spent...)
	s.spent = s.spent[:0]
	return nil
}

// release returns the rounds' pooled tuple containers once a delivery
// that does not execute them is done with them. Only batched row groups
// hold pooled containers: runs live in the lane slabs and column groups
// carry no tuples.
func (s *roundSource) release(rounds []live.Round) {
	if s.bs == 1 {
		return
	}
	for ri := range rounds {
		for gi := range rounds[ri].Groups {
			g := &rounds[ri].Groups[gi]
			exec.PutBatch(g.Tuples)
			g.Tuples = nil
		}
	}
}

// islandExec is the one round executor: it runs one lane's rounds on
// the parallel engine's workers, on the live nodes, and — spanning
// every island — inline on the sequential engine.
type islandExec struct {
	r *Runner
	// isl is the executing island, stamped with each delivery's round,
	// tag, and watermark for its captures; wins are the islands whose
	// monitoring windows close at each advance.
	isl        *island
	wins       []*island
	adv, flush []tagged
	// outs[s][p] is stream s's partition-p scan entry, with s indexing
	// the splitter's canonical stream order.
	outs [][]exec.Consumer
	bs   int
	// pooled marks batched groups whose tuple containers come from the
	// exec pool (the in-process drivers'); each returns to the pool as
	// soon as it is delivered. A live node's decoded groups do not.
	pooled bool
	// cols is the sequential columnar drive's column buffer (see
	// roundSource.cols); view is the zero-copy chunk window over it.
	cols [][]*exec.ColBatch
	view exec.ColBatch
	// colScratch pivots delivered row chunks into columns when the
	// runner is columnar; the executor runs on one goroutine at a time,
	// so the scratch has a single writer.
	colScratch exec.ColBatch
	// shipResult marks a remotely served island (ServeLiveHost): the
	// final island shards travel back in a result frame.
	shipResult bool
}

// islandExecs builds the round executors for a drive over cursors: one
// per leaf island when the plan runs parallel (or live), else a single
// executor over every island, whose stamps on island 0 go unread (the
// sequential engine installs no captures).
func (r *Runner) islandExecs(cursors []*streamCursor) []*islandExec {
	lanes := 1
	if r.parallel {
		lanes = r.plan.Hosts
	}
	adv, flush := r.buildTargets(cursors, lanes)
	outs := make([][]exec.Consumer, len(cursors))
	for i, c := range cursors {
		outs[i] = c.rt.outs
	}
	xs := make([]*islandExec, lanes)
	for l := range xs {
		xs[l] = &islandExec{r: r, isl: r.islands[l], wins: r.islands[l : l+1],
			adv: adv[l], flush: flush[l], outs: outs, bs: r.batchSize}
		if !r.parallel {
			xs[l].wins = r.islands
		}
	}
	return xs
}

// execute runs rounds in canonical order — per round: close monitoring
// windows and advance at the watermark (before the round touches any
// counter), deliver the groups in chunks of up to BatchSize (or tuple
// by tuple at BatchSize 1), then the flush targets in the flush round —
// and returns the last round executed.
//
//qap:hot
func (x *islandExec) execute(rounds []live.Round) int {
	isl, r, bs := x.isl, x.r, x.bs
	last := 0
	for ri := range rounds {
		rd := &rounds[ri]
		isl.curRound = rd.Round
		last = rd.Round
		if rd.Adv {
			isl.curWM = rd.WM
			if r.winSec > 0 {
				for _, w := range x.wins {
					w.closeWindowsTo(int(rd.WM / r.winSec))
				}
			}
			for _, at := range x.adv {
				isl.curTag = at.tag
				at.c.Advance(rd.WM)
			}
		}
		for gi := range rd.Groups {
			g := &rd.Groups[gi]
			out := x.outs[g.Stream][g.Part]
			isl.curTag = g.Tag
			switch {
			case x.cols != nil:
				cb := x.cols[g.Stream][g.Part]
				for off := 0; off < cb.Len; off += bs {
					cb.Slice(off, min(off+bs, cb.Len), &x.view)
					exec.PushColsAll(out, &x.view)
				}
				cb.Reset()
			case bs > 1:
				for off := 0; off < len(g.Tuples); off += bs {
					chunk := g.Tuples[off:min(off+bs, len(g.Tuples))]
					if r.columnar && x.colScratch.SetFromRows(chunk) {
						exec.PushColsAll(out, &x.colScratch)
					} else {
						exec.PushAll(out, chunk)
					}
				}
				if x.pooled {
					exec.PutBatch(g.Tuples)
					g.Tuples = nil
				}
			default:
				for i, t := range g.Tuples {
					isl.curTag = g.Tag + uint64(i)
					out.Push(t)
				}
			}
		}
		if rd.Flush {
			for _, ft := range x.flush {
				isl.curTag = ft.tag
				ft.c.Flush()
			}
		}
	}
	return last
}

// runSequential is the sequential delivery: every round executes
// inline on the calling goroutine as soon as it closes.
func (r *Runner) runSequential(cursors []*streamCursor, x *islandExec) (*Result, error) {
	s := r.newRoundSource(cursors, 1, 1)
	s.keep, s.reuse = true, r.reuseTupleSlabs
	if r.columnar {
		// Column slabs are valid only during a delivery call, so they
		// recycle unconditionally, with no scanTuplesSevered gating.
		s.cols = make([][]*exec.ColBatch, len(cursors))
		for i, c := range cursors {
			s.cols[i] = make([]*exec.ColBatch, len(c.rt.outs))
			for p := range s.cols[i] {
				s.cols[i][p] = new(exec.ColBatch)
			}
		}
		x.cols = s.cols
	}
	x.pooled = true
	s.ship = func(_ int, rounds []live.Round, _ bool) error {
		x.execute(rounds)
		return nil
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return r.finalize(s.fed(), s.wm), nil
}

// feedMsg carries a batch of rounds for one island's executor; last
// marks the island's final message.
type feedMsg struct {
	x      *islandExec
	rounds []live.Round
	last   bool
}

// runParallel executes the trace with the parallel engine. The caller
// goroutine runs the central replay loop.
//
//qap:hot
func (r *Runner) runParallel(cursors []*streamCursor, xs []*islandExec) (*Result, error) {
	hosts := r.plan.Hosts
	workers := r.workers
	if workers > hosts {
		workers = hosts
	}

	feeds := make([]chan feedMsg, workers) //qap:allow hotalloc -- driver setup, once per run
	for g := range feeds {
		feeds[g] = make(chan feedMsg, feedChanCap) //qap:allow hotalloc -- one channel per worker, once per run
	}
	inbox := make(chan linkBatch, 2*hosts) //qap:allow hotalloc -- driver setup, once per run

	// The driver ships each lane to the worker owning its island.
	s := r.newRoundSource(cursors, hosts, r.batchRounds)
	for _, x := range xs {
		x.pooled = true
	}
	//qap:allow hotalloc -- delivery closure built once per run
	s.ship = func(l int, rounds []live.Round, last bool) error {
		feeds[l%workers] <- feedMsg{x: xs[l], rounds: rounds, last: last}
		// Driver-owned telemetry; finalize reads it only after
		// driverWG.Wait() below.
		r.engBatches++
		return nil
	}

	// Leaf workers: worker g executes islands g, g+W, 2W, ...
	stall := testStallWorkers
	var workerWG sync.WaitGroup
	for g := 0; g < workers; g++ {
		workerWG.Add(1)
		//qap:allow hotalloc -- one worker goroutine closure per worker, once per run
		go func(feed <-chan feedMsg) {
			defer workerWG.Done()
			for msg := range feed {
				through := msg.x.execute(msg.rounds)
				isl := msg.x.isl
				items := isl.outbox
				isl.outbox = nil
				if stall != nil {
					<-stall
				}
				inbox <- linkBatch{isl: isl.id, through: through, items: items, done: msg.last}
			}
		}(feeds[g])
	}
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	//qap:allow hotalloc -- the driver goroutine closes once per run
	go func() {
		defer driverWG.Done()
		_ = s.run() // a channel delivery never fails
		for _, feed := range feeds {
			close(feed)
		}
	}()

	// Central replay on the calling goroutine, with the optional drive
	// timeout guarding each receive so a wedged worker surfaces as a
	// positioned error instead of hanging the run.
	var timer *time.Timer
	recv := func(waiting string) (linkBatch, error) { //qap:allow hotalloc -- replay guard closure, built once per run
		if r.driveTimeout <= 0 {
			return <-inbox, nil
		}
		if timer == nil {
			timer = time.NewTimer(r.driveTimeout) //qap:allow walltime -- stall guard only; a timeout poisons the run, never shapes its outputs
		} else {
			timer.Reset(r.driveTimeout)
		}
		select {
		case b := <-inbox:
			stopTimer(timer)
			return b, nil
		case <-timer.C:
			return linkBatch{}, fmt.Errorf("cluster: parallel drive stalled: no link batch within %s (%s)",
				r.driveTimeout, waiting)
		}
	}
	if err := r.replayLinks(hosts, recv); err != nil {
		// The driver and workers are abandoned mid-stream; the run is
		// poisoned and only the error survives.
		return nil, err
	}

	driverWG.Wait()
	workerWG.Wait()
	return r.finalize(s.fed(), s.wm), nil
}

// stopTimer stops a receive guard after another case won the select,
// draining a tick that fired concurrently so the next Reset starts
// clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// buildTargets pre-resolves every lane's advance and flush target
// lists in canonical (= tag) order: every target in lane 0 when lanes
// is 1, else each in its leaf island's lane. Advance walks the fed
// streams in cursor order; flush walks every router in sorted-name
// order.
func (r *Runner) buildTargets(cursors []*streamCursor, lanes int) (advTargets, flushTargets [][]tagged) {
	lane := func(rt *router, p int) int {
		if lanes == 1 {
			return 0
		}
		return rt.islands[p]
	}
	advTargets = make([][]tagged, lanes)
	for sIdx, c := range cursors {
		for p, out := range c.rt.outs {
			l := lane(c.rt, p)
			advTargets[l] = append(advTargets[l], tagged{
				tag: phaseAdv | uint64(sIdx*r.plan.Partitions+p), c: out,
			})
		}
	}
	flushTargets = make([][]tagged, lanes)
	for fIdx, name := range r.routerNames {
		rt := r.routers[name]
		for p, out := range rt.outs {
			l := lane(rt, p)
			flushTargets[l] = append(flushTargets[l], tagged{
				tag: phaseFlush | uint64(fIdx*r.plan.Partitions+p), c: out,
			})
		}
	}
	return advTargets, flushTargets
}

// replayLinks is the central replay loop shared by the parallel engine
// and the live backend: a K-way merge of the islands' link items by
// (round, tag), applied to the central island. An island with an empty
// pending queue bounds its next item at (through+1, 0) until its final
// batch arrives. recv supplies the next link batch from whichever
// transport the engine uses (channel or TCP); its argument describes
// which islands the merge is blocked on, for positioned stall errors.
//
//qap:hot
func (r *Runner) replayLinks(hosts int, recv func(waiting string) (linkBatch, error)) error {
	pending := make([][]linkItem, hosts) //qap:allow hotalloc -- replay setup, once per run
	heads := make([]int, hosts)          //qap:allow hotalloc -- replay setup, once per run
	through := make([]int, hosts)        //qap:allow hotalloc -- replay setup, once per run
	done := make([]bool, hosts)          //qap:allow hotalloc -- replay setup, once per run
	for i := range through {
		through[i] = -1
	}
	for {
		best, bestIsItem := -1, false
		var bestRound int
		var bestTag uint64
		for i := 0; i < hosts; i++ {
			var rnd int
			var tg uint64
			isItem := heads[i] < len(pending[i])
			if isItem {
				it := &pending[i][heads[i]]
				rnd, tg = it.round, it.tag
			} else if done[i] {
				continue
			} else {
				rnd, tg = through[i]+1, 0
			}
			if best == -1 || rnd < bestRound || (rnd == bestRound && tg < bestTag) {
				best, bestIsItem, bestRound, bestTag = i, isItem, rnd, tg
			}
		}
		if best == -1 {
			return nil // every island done and drained
		}
		if bestIsItem {
			it := &pending[best][heads[best]]
			// The merged item order is round order, and every item
			// carries its round's watermark, so closing central windows
			// here reproduces the sequential boundary exactly: all
			// central work of earlier rounds has been replayed.
			if r.winSec > 0 {
				r.islands[hosts].closeWindowsTo(int(it.mwm / r.winSec))
			}
			switch it.kind {
			case itemPush:
				it.e.Push(it.t)
			case itemPushBatch:
				it.e.PushBatch(it.b)
				exec.PutBatch(it.b)
				it.b = nil
			case itemAdvance:
				it.e.Advance(it.wm)
			case itemFlush:
				it.e.Flush()
			}
			heads[best]++
			if heads[best] == len(pending[best]) {
				pending[best], heads[best] = nil, 0
			}
			continue
		}
		// The merge is blocked on islands that have not shipped far
		// enough; receive more batches.
		b, err := recv(replayWaiting(through, done))
		if err != nil {
			return err
		}
		r.engLinkItems += int64(len(b.items))
		if len(pending[b.isl]) == 0 {
			pending[b.isl], heads[b.isl] = b.items, 0
		} else {
			pending[b.isl] = append(pending[b.isl], b.items...)
		}
		if b.through > through[b.isl] {
			through[b.isl] = b.through
		}
		if b.done {
			done[b.isl] = true
		}
	}
}

// replayWaiting renders which islands the replay merge is waiting on —
// the coordinates of a drive stall.
func replayWaiting(through []int, done []bool) string {
	var sb strings.Builder
	for i := range through {
		if done[i] {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "island %d shipped through round %d", i, through[i])
	}
	if sb.Len() == 0 {
		return "all islands done"
	}
	return "waiting on " + sb.String()
}
