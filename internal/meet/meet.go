// Package meet implements the inter-node meeting-time estimation of
// §4.1.2: every node tabulates the average time between its meetings
// with every other node, exchanges these tables through the control
// channel, assembles them into a meeting-time adjacency matrix, and
// estimates the expected time for any node to meet any other within at
// most h hops (h=3 in the paper; pairs unreachable in h hops get an
// infinite expected meeting time).
package meet

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rapid/internal/packet"
	"rapid/internal/stat"
)

// DefaultHops is the paper's transitive-estimation horizon
// ("In our implementation we restrict h = 3").
const DefaultHops = 3

// Table maps a peer to the expected direct inter-meeting time in
// seconds. It is only the input (MergeTable) and snapshot (DirectTable)
// form of one matrix row; the estimator stores rows as sorted slices.
type Table map[packet.NodeID]float64

// Estimator is one node's view of the network's meeting behaviour. It is
// not safe for concurrent use.
//
// Two things are indexed by the dense node ID space of a run (scenario
// generators hand out IDs 0..N-1): the merged matrix, one slice header
// per owner, and the memoized distances, n floats per source asked.
// Everything else an estimator holds grows with what its node met, not
// with n, so a run does not hold n² of it.
type Estimator struct {
	self packet.NodeID
	hops int

	// met is the node's own meeting history, one entry per peer met,
	// sorted by peer.
	met []peerLog

	// rows is the merged matrix: every node's direct table as learned
	// via the control channel, indexed by owner ID and sorted by peer
	// ID; rows[self] holds the averages in met. A row only holds the
	// owner's direct peers, so the matrix stays sparse. A nil row is an
	// unknown owner; an owner known with an empty table holds a non-nil
	// empty row, which is not an unknown owner to the control channel.
	//
	// rows[self] is private and upserted in place. Every other row is an
	// immutable snapshot, shared by reference with the estimators it
	// came from and went to: nothing ever writes through one, a merge
	// only swaps the slice header.
	rows [][]halfEdge
	// published is the last snapshot of rows[self] handed out by
	// publish; unpublished is set when rows[self] has changed since.
	published   []halfEdge
	unpublished bool
	// slab is the append-only arena snapshots are carved from (capped,
	// so an append to one can never reach the next); sortScratch is
	// MergeTable's sorted copy of its map.
	slab        []halfEdge
	sortScratch []halfEdge

	// version invalidates the shortest-path memo on any mutation.
	version uint64

	// n is the node universe size: max known ID + 1.
	n int
	// The matrix's edge between u and v weighs the optimistic minimum
	// of rows[u]'s entry for v and rows[v]'s entry for u; a NaN or +Inf
	// entry makes no arc, and neither does a self or negative peer.
	// shortestWithin relaxes each node over its own row plus the reverse
	// arcs, so only the arcs the rows do not already give at that weight
	// are stored: rev holds the arc u→v, weighing rows[v]'s entry for u,
	// exactly when that entry makes an arc and rows[u] has no equal or
	// cheaper entry for v. It is one flat list sorted by (u, v), so a
	// node without reverse arcs holds no slot in it.
	//
	// Reverse arcs are settled once both endpoint rows of an exchange
	// have arrived (settling each merge at once mostly inserts arcs the
	// second row then deletes): Settle at the end of the exchange, or
	// the next Expected for callers that merge without settling. moved
	// queues the pairs whose entries changed since, to be re-derived one
	// by one; it is borrowed from queues at the first moved pair and
	// handed back by the settle that drains it. While stale is set
	// nothing is queued and every reverse arc is derived afresh from the
	// rows at the next Expected instead: from New until the first
	// estimate, so an estimator nobody asks (the CGR arms') does no
	// reverse-arc work at all, and once the pairs queued since the last
	// estimate (sinceEstimate, settled or not) reach movedMax, so an
	// estimator that merges for many exchanges between two estimates
	// does at most one rederive's worth of settling. entries counts the
	// row entries, for movedMax.
	rev           []arc
	moved         *settleQueue
	stale         bool
	sinceEstimate int
	entries       int
	// estArcs is len(rev) as of the latest Expected that found the
	// matrix moved, which Stats reports.
	estArcs int

	// memo caches per-source distance slices over the matrix as of
	// (memoVer, memoN). When either moves its slices go to spare, which
	// shortestWithin draws from before allocating.
	memoVer uint64
	memoN   int
	memo    []memoEntry
	spare   [][]float64

	stats Stats
}

// peerLog is the history of the node's meetings with one peer. A
// virtual meeting at time 0 (epoch start) bootstraps the first gap —
// exactly the semantics of lastSeen's zero value — so a single observed
// meeting already yields a finite, if rough, estimate that later
// observations refine.
type peerLog struct {
	peer     packet.NodeID
	lastSeen float64
	gaps     stat.MovingAverage
}

// memoEntry is one memoized source's distances.
type memoEntry struct {
	src  packet.NodeID
	dist []float64
}

// Stats counts an estimator's work. The counters depend only on the
// sequence of calls made on the estimator, never on timing, so they
// are deterministic wherever that sequence is.
type Stats struct {
	// RowsMerged counts rows installed by a merge because they differed
	// from the stored one (an equal row is not counted).
	RowsMerged uint64
	// PairsMoved counts the pairs whose row entry moved, by merges and
	// by ObserveMeeting; each is queued for one re-derivation of its
	// reverse arcs.
	PairsMoved uint64
	// RowsPublished counts snapshots taken of the own row.
	RowsPublished uint64
	// ShortestPaths counts h-hop shortest-path runs (memo misses).
	ShortestPaths uint64
	// ReverseArcs is not a count of work but the number of reverse arcs
	// the matrix held at the estimator's latest estimate (see
	// Estimator.rev); an estimator never asked reports 0.
	ReverseArcs uint64
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.RowsMerged += o.RowsMerged
	s.PairsMoved += o.PairsMoved
	s.RowsPublished += o.RowsPublished
	s.ShortestPaths += o.ShortestPaths
	s.ReverseArcs += o.ReverseArcs
}

// movedMax bounds the moved pairs re-derived one by one between two
// estimates at what re-deriving every arc costs instead: rederive looks
// up each row entry once, settle looks up two entries and updates two
// arcs per queued pair. Past half of n plus the entries, one rederive
// is the cheaper way to settle, and the queue takes at most 4 bytes per
// node and per row entry.
func (e *Estimator) movedMax() int {
	return (e.n + e.entries) / 2
}

// halfEdge is one entry of a sorted row.
type halfEdge struct {
	to packet.NodeID
	w  float64
}

// arc is one reverse arc u→v at weight w, keyed by u in the high and v
// in the low 32 bits so the list sorts by (u, v).
type arc struct {
	key uint64
	w   float64
}

// arcKey returns the key of the arc u→v.
func arcKey(u, v packet.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// pair is a node pair whose reverse arcs await settling, held in 32
// bits a side: both IDs index the estimator's rows.
type pair struct{ u, v int32 }

// settleQueue is the moved pairs awaiting a settle, plus the settle's
// own scratch: the arcs it adds, folded into rev once it has walked
// every pair, and a one-hash Bloom filter over the keys in rev (16 bits
// an arc, so about 6 % false positives), which spares the search for
// most arcs that are not there.
type settleQueue struct {
	pairs  []pair
	added  []arc
	filter []uint64
	shift  uint
}

// hashArc is Fibonacci hashing of an arc key.
func hashArc(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

// index fills the filter with the keys of rev.
func (q *settleQueue) index(rev []arc) {
	words := 1
	for words*64 < 16*len(rev) {
		words *= 2
	}
	q.shift = 64 - uint(bits.TrailingZeros(uint(words*64)))
	if cap(q.filter) < words {
		q.filter = make([]uint64, words)
	}
	q.filter = q.filter[:words]
	clear(q.filter)
	for _, r := range rev {
		h := hashArc(r.key) >> q.shift
		q.filter[h>>6] |= 1 << (h & 63)
	}
}

// mayHold reports whether the indexed rev may hold key k; false means
// it certainly does not.
func (q *settleQueue) mayHold(k uint64) bool {
	h := hashArc(k) >> q.shift
	return q.filter[h>>6]&(1<<(h&63)) != 0
}

// pathScratch is shortestWithin's working state: the relaxation
// double-buffer's partner and the bitsets of nodes whose distance fell.
type pathScratch struct {
	next        []float64
	front, fell []uint64
}

// queues and paths lend the moved-pair queues and the relaxation
// scratch: a queue lives from the first moved pair of an exchange to
// the settle that drains it, and the scratch for one shortest-path
// search, so a run holds about one of each per worker instead of one
// per estimator. Their contents never outlive the borrow, so which
// object a borrower gets cannot change a result.
var (
	queues freeList[settleQueue]
	paths  freeList[pathScratch]
)

// freeMax is the most idle objects a freeList keeps. A point-session
// run borrows at most two queues (one exchange's endpoints) and one
// scratch per engine worker at once (measured on constel-par and
// mega-stream at 1 and 2 workers), so 64 covers 32 workers, summed over
// the runs a process holds at once. On the global channel only the
// shared matrix merges, so at most its one queue is out.
const freeMax = 64

// freeList lends scratch objects to every estimator in the process.
// Unlike a sync.Pool it drops no idle object, at a GC or under the race
// detector, so a warmed estimator borrows without allocating; beyond
// freeMax idle objects, what a burst of borrowers returns is left to
// the GC.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// get lends an idle object, or a new one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.idle)
	if k == 0 {
		return new(T)
	}
	x := l.idle[k-1]
	l.idle[k-1] = nil
	l.idle = l.idle[:k-1]
	return x
}

// put takes x back.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < freeMax {
		l.idle = append(l.idle, x)
	}
}

// search returns the position peer occupies, or would occupy, in a
// slice sorted by target ID.
func search(lst []halfEdge, peer packet.NodeID) int {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid].to < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns peer's weight in a sorted row and whether it is there.
func lookup(row []halfEdge, peer packet.NodeID) (float64, bool) {
	if i := search(row, peer); i < len(row) && row[i].to == peer {
		return row[i].w, true
	}
	return 0, false
}

// upsert sets to's weight in a slice sorted by target ID, inserting the
// entry in order when it is absent.
func upsert(lst []halfEdge, to packet.NodeID, w float64) []halfEdge {
	i := search(lst, to)
	if i < len(lst) && lst[i].to == to {
		lst[i].w = w
		return lst
	}
	return slices.Insert(lst, i, halfEdge{to: to, w: w})
}

// searchArcFrom returns the position the arc with key k occupies, or
// would occupy, in a list sorted by key, starting from a guess: when
// the key before hint is below k the search gallops forward from hint,
// so a run of ascending keys costs about the log of each step between
// them; otherwise it bisects the list below hint.
func searchArcFrom(lst []arc, k uint64, hint int) int {
	lo, hi := 0, len(lst)
	if 0 < hint && hint <= len(lst) {
		if lst[hint-1].key < k {
			lo = hint
			for step := 1; lo+step-1 < hi; step *= 2 {
				if i := lo + step - 1; lst[i].key >= k {
					hi = i
				} else {
					lo = i + 1
				}
			}
		} else {
			hi = hint - 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// New returns an estimator for node self using an h-hop horizon
// (h <= 0 selects DefaultHops). A negative self makes a shared matrix:
// an estimator with no own row, which only merges the rows of others
// (the instant global channel's one matrix) and must not observe
// meetings.
func New(self packet.NodeID, hops int) *Estimator {
	if hops <= 0 {
		hops = DefaultHops
	}
	e := &Estimator{self: self, hops: hops, stale: true}
	e.ensureNode(self)
	return e
}

// ObserveMeeting records a meeting with peer at the given time,
// updating the average inter-meeting gap.
func (e *Estimator) ObserveMeeting(peer packet.NodeID, now float64) {
	if peer == e.self || peer < 0 {
		return
	}
	e.ensureNode(peer)
	i, ok := slices.BinarySearchFunc(e.met, peer, func(l peerLog, p packet.NodeID) int { return cmp.Compare(l.peer, p) })
	if !ok {
		e.met = slices.Insert(e.met, i, peerLog{peer: peer})
	}
	l := &e.met[i]
	l.gaps.Observe(now - l.lastSeen)
	l.lastSeen = now
	before := len(e.rows[e.self])
	e.rows[e.self] = upsert(e.rows[e.self], peer, l.gaps.Value())
	e.entries += len(e.rows[e.self]) - before
	e.unpublished = true
	e.touch(e.self, peer)
	e.version++
}

// Stats returns the work counters.
func (e *Estimator) Stats() Stats {
	s := e.stats
	s.ReverseArcs = uint64(e.estArcs)
	return s
}

// ensureNode grows the matrix to cover id.
func (e *Estimator) ensureNode(id packet.NodeID) {
	if id < 0 || int(id) < e.n {
		return
	}
	e.n = int(id) + 1
	for len(e.rows) < e.n {
		e.rows = append(e.rows, nil)
	}
}

// touch queues the pair {u, v} for re-deriving its reverse arcs once
// one of its row entries moved. Self and negative peers make no arc.
func (e *Estimator) touch(u, v packet.NodeID) {
	if u == v || v < 0 {
		return
	}
	e.stats.PairsMoved++
	switch {
	case e.stale: // the next settle derives every arc afresh
	case e.sinceEstimate >= e.movedMax():
		e.stale = true
		e.release()
	default:
		e.sinceEstimate++
		if e.moved == nil {
			e.moved = queues.get()
		}
		e.moved.pairs = append(e.moved.pairs, pair{int32(u), int32(v)})
	}
}

// queued returns the number of pairs awaiting settling.
func (e *Estimator) queued() int {
	if e.moved == nil {
		return 0
	}
	return len(e.moved.pairs)
}

// release hands the moved-pair queue back, emptied.
func (e *Estimator) release() {
	if q := e.moved; q != nil {
		q.pairs, q.added = q.pairs[:0], q.added[:0]
		queues.put(q)
		e.moved = nil
	}
}

// Settle brings the reverse arcs up to date with the rows merged so
// far and hands back the queue of moved pairs. The control channel
// calls it once all rows of an exchange are in, so no queue outlives
// an exchange. A stale estimator is left as it is: its next Expected
// derives every arc afresh, and one nobody asks does no reverse-arc
// work at all.
func (e *Estimator) Settle() {
	if !e.stale {
		e.settle()
	}
}

// settle brings the reverse arcs up to date with the rows: the queued
// pairs one by one, or all of them afresh when stale.
//
// Every pair is re-derived from the rows as they stand now, so an arc's
// new state does not depend on which of its pairs' entries comes first,
// and rev can stay put while the pairs are walked: an arc to drop is
// marked with a NaN weight (no arc ever holds one), a new arc is set
// aside, and at the end the dropped arcs are compacted out from the
// first of them on and the new ones merged in from the back. A merge
// queues its pairs in ascending peer order, so the arcs of both
// directions are looked up in ascending key order, each search
// galloping on from where the last one of its direction ended.
func (e *Estimator) settle() {
	if e.stale {
		e.rederive()
		e.stale = false
		return
	}
	q := e.moved
	if q == nil {
		return
	}
	q.index(e.rev)
	inf := math.Inf(1)
	drop := len(e.rev) // the first arc marked dropped
	var atUV, atVU int
	for _, p := range q.pairs {
		u, v := packet.NodeID(p.u), packet.NodeID(p.v)
		a, okA := lookup(e.rows[u], v)
		b, okB := lookup(e.rows[v], u)
		atUV = e.setReverse(q, arcKey(u, v), b, okB && b < inf && !(okA && a <= b), atUV, &drop)
		atVU = e.setReverse(q, arcKey(v, u), a, okA && a < inf && !(okB && b <= a), atVU, &drop)
	}
	if drop < len(e.rev) {
		kept := slices.DeleteFunc(e.rev[drop:], func(r arc) bool { return math.IsNaN(r.w) })
		e.rev = e.rev[:drop+len(kept)]
	}
	if len(q.added) > 0 {
		e.addArcs(q.added)
	}
	e.release()
}

// setReverse holds the reverse arc with key k at weight w when keep is
// set and drops it otherwise: an arc already in rev is updated in place
// or marked dropped (lowering *drop to its position if below), a new
// one goes to q.added. hint is where the search starts; the position k
// occupies, or would, in rev is returned.
func (e *Estimator) setReverse(q *settleQueue, k uint64, w float64, keep bool, hint int, drop *int) int {
	if !q.mayHold(k) {
		if keep {
			q.added = append(q.added, arc{key: k, w: w})
		}
		return hint
	}
	i := searchArcFrom(e.rev, k, hint)
	has := i < len(e.rev) && e.rev[i].key == k
	switch {
	case keep && has:
		e.rev[i].w = w
	case keep:
		q.added = append(q.added, arc{key: k, w: w})
	case has:
		e.rev[i].w = math.NaN()
		*drop = min(*drop, i)
	}
	return i
}

// addArcs merges added (in any order, possibly with repeats, each
// repeat at the same weight) into rev, from the back so nothing moves
// twice.
func (e *Estimator) addArcs(added []arc) {
	slices.SortFunc(added, func(a, b arc) int { return cmp.Compare(a.key, b.key) })
	added = slices.CompactFunc(added, func(a, b arc) bool { return a.key == b.key })
	i, j := len(e.rev)-1, len(added)-1
	e.rev = slices.Grow(e.rev, len(added))[:len(e.rev)+len(added)]
	for k := len(e.rev) - 1; j >= 0; k-- {
		if i >= 0 && e.rev[i].key > added[j].key {
			e.rev[k] = e.rev[i]
			i--
		} else {
			e.rev[k] = added[j]
			j--
		}
	}
}

// rederive rebuilds every reverse arc from the rows: row u's entry for
// v gives the arc v→u unless it makes no arc or rows[v] gives an equal
// or cheaper one.
func (e *Estimator) rederive() {
	e.rev = e.rev[:0]
	inf := math.Inf(1)
	for u, row := range e.rows {
		owner := packet.NodeID(u)
		for _, ed := range row {
			v := ed.to
			if v == owner || v < 0 || !(ed.w < inf) {
				continue
			}
			if a, ok := lookup(e.rows[v], owner); ok && a <= ed.w {
				continue
			}
			e.rev = append(e.rev, arc{key: arcKey(v, owner), w: ed.w})
		}
	}
	slices.SortFunc(e.rev, func(a, b arc) int { return cmp.Compare(a.key, b.key) })
}

// DirectTable returns a snapshot of this node's own averages, the
// payload exchanged as "expected meeting times with nodes" metadata
// (§4.2).
func (e *Estimator) DirectTable() Table {
	t := Table{}
	if e.self >= 0 {
		for _, ed := range e.rows[e.self] {
			t[ed.to] = ed.w
		}
	}
	return t
}

// RowLen returns the number of entries in owner's stored table and
// whether the table is known at all — an owner can be known with an
// empty table. The control channel prices gossip from it.
func (e *Estimator) RowLen(owner packet.NodeID) (n int, known bool) {
	if owner < 0 || int(owner) >= e.n {
		return 0, false
	}
	return len(e.rows[owner]), e.rows[owner] != nil
}

// MergeTable installs owner's direct table as learned from a metadata
// exchange, replacing any older version. The passed table is not
// retained.
func (e *Estimator) MergeTable(owner packet.NodeID, t Table) {
	if owner == e.self || owner < 0 {
		return // own table is maintained locally
	}
	row := e.sortScratch[:0]
	for id, w := range t {
		row = append(row, halfEdge{to: id, w: w})
	}
	slices.SortFunc(row, func(a, b halfEdge) int { return cmp.Compare(a.to, b.to) })
	e.sortScratch = row
	e.mergeRow(owner, row, false)
}

// MergeTableFrom merges src's stored table of owner into e — the
// in-process form of MergeTable the control channel uses when both
// endpoints live in the same simulation, with identical semantics to
// e.MergeTable(owner, <src's table of owner>). The row is shared, not
// copied: src's own row is published as a snapshot (copied only when
// it changed since the last publication), and any other row already is
// one. Both estimators are written to, so neither may be in use
// elsewhere.
func (e *Estimator) MergeTableFrom(src *Estimator, owner packet.NodeID) {
	if owner == e.self || owner < 0 || src == e {
		return
	}
	var incoming []halfEdge
	switch {
	case owner == src.self:
		incoming = src.publish()
	case int(owner) < src.n:
		incoming = src.rows[owner]
	}
	e.mergeRow(owner, incoming, true)
}

// slabMin is the smallest slab chunk, in entries, and slabRows the
// number of rows of the requested length a new chunk holds at least.
const (
	slabMin  = 256
	slabRows = 4
)

// publish returns the current snapshot of the own row, carving a new
// one only when the row changed since the last call.
func (e *Estimator) publish() []halfEdge {
	if e.unpublished {
		e.published = e.carve(e.rows[e.self])
		e.unpublished = false
		e.stats.RowsPublished++
	}
	return e.published
}

// carve copies row into the slab and returns the copy, capped at its
// length. The slab only ever grows: a full chunk is left to the rows
// carved from it, and a fresh one is started.
func (e *Estimator) carve(row []halfEdge) []halfEdge {
	if len(row) == 0 {
		return nil
	}
	if cap(e.slab)-len(e.slab) < len(row) {
		e.slab = make([]halfEdge, 0, max(slabMin, slabRows*len(row)))
	}
	off := len(e.slab)
	e.slab = append(e.slab, row...)
	return e.slab[off:len(e.slab):len(e.slab)]
}

// mergeRow installs incoming (sorted by peer) as owner's row: by
// reference when shared says it is an immutable snapshot, as a carved
// copy otherwise. Gossip re-delivers whole tables on nearly every
// contact while changing at most a few entries, so an equal row
// returns at once (the version, and with it the shortest-path memo,
// stays put); otherwise the new row is installed and then walked
// against the old one, re-deriving only the pairs that moved.
func (e *Estimator) mergeRow(owner packet.NodeID, incoming []halfEdge, shared bool) {
	e.ensureNode(owner)
	old := e.rows[owner]
	if slices.Equal(old, incoming) {
		if old == nil {
			e.rows[owner] = []halfEdge{} // known from now on, with an empty table
		}
		return
	}
	if !shared {
		incoming = e.carve(incoming)
	}
	if incoming == nil {
		incoming = []halfEdge{}
	}
	e.rows[owner] = incoming
	e.entries += len(incoming) - len(old)
	e.stats.RowsMerged++
	now := incoming
	if len(now) > 0 {
		e.ensureNode(now[len(now)-1].to) // the row's largest peer
	}
	i, j := 0, 0
	for i < len(old) || j < len(now) {
		switch {
		case j == len(now) || (i < len(old) && old[i].to < now[j].to): // removed entry
			e.touch(owner, old[i].to)
			i++
		case i == len(old) || now[j].to < old[i].to: // new entry
			e.touch(owner, now[j].to)
			j++
		default:
			if old[i].w != now[j].w {
				e.touch(owner, now[j].to)
			}
			i++
			j++
		}
	}
	e.version++
}

// Expected returns E(M_from,to): the expected time for node `from` to
// meet node `to` within at most h hops, computed as the minimum over
// paths of at most h edges of the sum of expected direct inter-meeting
// times (the paper's example: X meets Z via Y in expected time
// E(M_XY) + E(M_YZ)). Returns +Inf when `to` is unreachable within h
// hops of the current matrix.
func (e *Estimator) Expected(from, to packet.NodeID) float64 {
	if from == to {
		return 0
	}
	if e.memoVer != e.version || e.memoN != e.n {
		e.settle()
		e.estArcs, e.sinceEstimate = len(e.rev), 0
		for _, m := range e.memo {
			e.spare = append(e.spare, m.dist)
		}
		clear(e.memo)
		e.memo = e.memo[:0]
		e.memoVer, e.memoN = e.version, e.n
	}
	if int(from) < 0 || int(from) >= e.n {
		return math.Inf(1)
	}
	var dist []float64
	for _, m := range e.memo {
		if m.src == from {
			dist = m.dist
			break
		}
	}
	if dist == nil {
		e.stats.ShortestPaths++
		dist = e.shortestWithin(from)
		e.memo = append(e.memo, memoEntry{src: from, dist: dist})
	}
	if int(to) < 0 || int(to) >= len(dist) {
		return math.Inf(1)
	}
	return dist[to]
}

// shortestWithin runs h level-synchronous rounds of Bellman-Ford
// relaxation from src, yielding min-cost paths with at most h edges.
// Each round reads the previous round's distances (cur) and lowers the
// next ones, so a path can never accumulate more than h hops.
//
//   - A node relaxes the arcs of its row and its reverse arcs. A pair
//     with two arcs of weights a and b yields du+a and du+b, whose
//     minimum is du+min(a, b) bit for bit because rounding is monotone,
//     so the distances are those over the min-merged matrix. Nor does
//     the order of relaxation matter: a strict < keeps the same minimum
//     whichever arc comes first.
//   - Only the nodes whose distance fell in the previous round relax
//     (the front bitset): a node whose distance stayed put already
//     offered every arc at that distance, so it could lower nothing.
//     They relax in ID order, so the search for a front node's run of
//     reverse arcs gallops on from where the last run ended, and is
//     skipped when the list already stands at the node's run (or past
//     it, when the node has none). The two buffers agree between
//     rounds, and only the entries that fell are copied.
//
// The returned slice comes from the spare list when one is large
// enough (the memo retains it); the scratch is borrowed from paths for
// the call.
func (e *Estimator) shortestWithin(src packet.NodeID) []float64 {
	inf := math.Inf(1)
	var cur []float64
	if k := len(e.spare); k > 0 {
		cur, e.spare = e.spare[k-1], e.spare[:k-1]
	}
	if cap(cur) < e.n {
		cur = make([]float64, e.n)
	}
	cur = cur[:e.n]
	sc := paths.get()
	if cap(sc.next) < e.n {
		sc.next = make([]float64, e.n)
	}
	next := sc.next[:e.n]
	for i := range cur {
		cur[i] = inf
	}
	cur[src] = 0
	copy(next, cur)
	words := (e.n + 63) / 64
	if cap(sc.front) < words {
		sc.front, sc.fell = make([]uint64, words), make([]uint64, words)
	}
	front, fell := sc.front[:words], sc.fell[:words]
	clear(front)
	clear(fell)
	front[src/64] = 1 << (src % 64)
	rows, rev := e.rows, e.rev
	for hop := 0; hop < e.hops; hop++ {
		i := 0 // where the search for the next front node's reverse arcs starts
		for w, word := range front {
			for ; word != 0; word &= word - 1 {
				u := w<<6 | bits.TrailingZeros64(word)
				du := cur[u]
				for _, ed := range rows[u] {
					v := int(ed.to)
					if uint(v) >= uint(len(next)) || v == u {
						continue // a negative or self peer makes no arc
					}
					if d := du + ed.w; d < next[v] { // a NaN or +Inf weight never passes
						next[v] = d
						fell[v>>6] |= 1 << (v & 63)
					}
				}
				if i < len(rev) && rev[i].key>>32 < uint64(u) {
					i = searchArcFrom(rev, uint64(u)<<32, i+1)
				}
				for ; i < len(rev) && rev[i].key>>32 == uint64(u); i++ {
					v := int(uint32(rev[i].key))
					if d := du + rev[i].w; d < next[v] {
						next[v] = d
						fell[v>>6] |= 1 << (v & 63)
					}
				}
			}
		}
		moved := false
		for w, word := range fell {
			moved = moved || word != 0
			for ; word != 0; word &= word - 1 {
				v := w<<6 | bits.TrailingZeros64(word)
				cur[v] = next[v]
			}
		}
		if !moved {
			break
		}
		front, fell = fell, front
		clear(fell)
	}
	paths.put(sc)
	cur[src] = 0
	return cur
}
