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
// All per-node state is laid out struct-of-arrays style, indexed by the
// dense node ID space of a run (scenario generators hand out IDs
// 0..N-1): at mega-constellation populations a map-keyed layout spends
// most of the hot path hashing NodeIDs and chasing map buckets.
type Estimator struct {
	self packet.NodeID
	hops int

	// direct accumulates locally observed inter-meeting gaps per peer,
	// indexed by peer ID (nil = never met).
	direct []*stat.MovingAverage
	// lastSeen is the time of the previous meeting per peer, to turn
	// meeting instants into gaps. A virtual meeting at time 0 (epoch
	// start) bootstraps the first gap — exactly the semantics of the
	// slice's zero value — so a single observed meeting already yields a
	// finite, if rough, estimate that later observations refine.
	lastSeen []float64

	// rows is the merged matrix: every node's direct table as learned
	// via the control channel, indexed by owner ID and sorted by peer
	// ID; rows[self] holds the averages in direct. A row only holds the
	// owner's direct peers, so the matrix stays sparse. known marks the
	// owners whose table has been installed: an owner known with an
	// empty row is not an unknown owner to the control channel.
	//
	// rows[self] is private and upserted in place. Every other row is an
	// immutable snapshot, shared by reference with the estimators it
	// came from and went to: nothing ever writes through one, a merge
	// only swaps the slice header.
	rows  [][]halfEdge
	known []bool
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
	// shortestWithin relaxes each node over its own row plus rev, so
	// only the arcs the row does not already give at that weight are
	// stored: rev[u] holds the arc u→v, weighing rows[v]'s entry for u,
	// exactly when that entry makes an arc and rows[u] has no equal or
	// cheaper entry for v. It is sorted by target ID, and revArcs
	// counts its arcs.
	//
	// Reverse arcs are settled lazily, before the next shortest-path
	// run, when both endpoint rows of an exchange have arrived (settling
	// each merge at once mostly inserts arcs the second row then
	// deletes). moved queues the pairs whose entries changed since, to
	// be re-derived one by one. While stale is set the queue is unused
	// and every reverse arc is derived afresh from the rows instead:
	// from New until the first estimate, so an estimator nobody asks
	// (the CGR arms') does no reverse-arc work at all, and after the
	// queue outgrew movedMax, so it stays bounded. entries counts the
	// row entries, for movedMax.
	rev     [][]halfEdge
	revArcs int
	moved   []pair
	stale   bool
	entries int

	// memoDist caches per-source distance slices over the current
	// matrix. When the version moves its slices go to spare, which
	// shortestWithin draws from before allocating; distScratch is the
	// relaxation double-buffer's partner, front and fell its bitsets of
	// nodes whose distance fell.
	memoVer     uint64
	memoDist    [][]float64
	spare       [][]float64
	distScratch []float64
	front, fell []uint64

	stats Stats
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
	// held when Stats was called (see Estimator.rev).
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

// movedMax bounds the queue of moved pairs awaiting re-derivation at
// what re-deriving every arc costs instead: rederive clears n reverse
// lists and looks up each row entry once, settle looks up two entries
// and updates two lists per queued pair. Past half of n plus the
// entries, one rederive is the cheaper way to settle, and the queue
// takes at most 4 bytes per node and per row entry.
func (e *Estimator) movedMax() int {
	return (e.n + e.entries) / 2
}

// halfEdge is one entry of a sorted row, or one reverse arc.
type halfEdge struct {
	to packet.NodeID
	w  float64
}

// pair is a node pair whose reverse arcs await settling, held in 32
// bits a side: both IDs index the estimator's dense arrays.
type pair struct{ u, v int32 }

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

// New returns an estimator for node self using an h-hop horizon
// (h <= 0 selects DefaultHops).
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
	ma := e.direct[peer]
	if ma == nil {
		ma = &stat.MovingAverage{}
		e.direct[peer] = ma
	}
	ma.Observe(now - e.lastSeen[peer]) // lastSeen defaults to 0 = epoch start
	e.lastSeen[peer] = now
	e.known[e.self] = true
	before := len(e.rows[e.self])
	e.rows[e.self] = upsert(e.rows[e.self], peer, ma.Value())
	e.entries += len(e.rows[e.self]) - before
	e.unpublished = true
	e.touch(e.self, peer)
	e.version++
}

// Stats returns the work counters.
func (e *Estimator) Stats() Stats {
	s := e.stats
	s.ReverseArcs = uint64(e.revArcs)
	return s
}

// ensureNode grows the dense per-node arrays to cover id.
func (e *Estimator) ensureNode(id packet.NodeID) {
	if id < 0 || int(id) < e.n {
		return
	}
	e.n = int(id) + 1
	for len(e.rows) < e.n {
		e.direct = append(e.direct, nil)
		e.lastSeen = append(e.lastSeen, 0)
		e.rows = append(e.rows, nil)
		e.known = append(e.known, false)
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
	case len(e.moved) >= e.movedMax():
		e.stale = true
		e.moved = nil
	default:
		e.moved = append(e.moved, pair{int32(u), int32(v)})
	}
}

// settle brings the reverse arcs up to date with the rows: the queued
// pairs one by one, or all of them afresh when stale.
func (e *Estimator) settle() {
	for len(e.rev) < e.n {
		e.rev = append(e.rev, nil)
	}
	if e.stale {
		e.rederive()
		e.stale = false
		return
	}
	inf := math.Inf(1)
	for _, p := range e.moved {
		u, v := packet.NodeID(p.u), packet.NodeID(p.v)
		a, okA := lookup(e.rows[u], v)
		b, okB := lookup(e.rows[v], u)
		e.setReverse(u, v, b, okB && b < inf && !(okA && a <= b))
		e.setReverse(v, u, a, okA && a < inf && !(okB && b <= a))
	}
	e.moved = e.moved[:0]
}

// rederive rebuilds every reverse arc from the rows: row u's entry for
// v gives the arc v→u unless it makes no arc or rows[v] gives an equal
// or cheaper one. Rows are walked in owner order, so each rev list is
// appended to in target order.
func (e *Estimator) rederive() {
	for u := range e.rev {
		e.rev[u] = e.rev[u][:0]
	}
	e.revArcs = 0
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
			e.rev[v] = append(e.rev[v], halfEdge{to: owner, w: ed.w})
			e.revArcs++
		}
	}
}

// setReverse holds the reverse arc u→v at weight w when keep is set
// and drops it otherwise.
func (e *Estimator) setReverse(u, v packet.NodeID, w float64, keep bool) {
	lst := e.rev[u]
	i := search(lst, v)
	has := i < len(lst) && lst[i].to == v
	switch {
	case keep && has:
		lst[i].w = w
	case keep:
		e.rev[u] = slices.Insert(lst, i, halfEdge{to: v, w: w})
		e.revArcs++
	case has:
		e.rev[u] = slices.Delete(lst, i, i+1)
		e.revArcs--
	}
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
	return len(e.rows[owner]), e.known[owner]
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
	e.known[owner] = true
	old := e.rows[owner]
	if slices.Equal(old, incoming) {
		return
	}
	if !shared {
		incoming = e.carve(incoming)
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
	if e.memoVer != e.version || len(e.memoDist) < e.n {
		e.settle()
		for _, d := range e.memoDist {
			if d != nil {
				e.spare = append(e.spare, d)
			}
		}
		if cap(e.memoDist) < e.n {
			e.memoDist = make([][]float64, e.n)
		} else {
			e.memoDist = e.memoDist[:e.n]
			clear(e.memoDist)
		}
		e.memoVer = e.version
	}
	if int(from) < 0 || int(from) >= e.n {
		return math.Inf(1)
	}
	dist := e.memoDist[from]
	if dist == nil {
		e.stats.ShortestPaths++
		dist = e.shortestWithin(from)
		e.memoDist[from] = dist
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
//     so the distances are those over the min-merged matrix.
//   - Only the nodes whose distance fell in the previous round relax,
//     in ID order (the front bitset): a node whose distance stayed put
//     already offered every arc at that distance, so it could lower
//     nothing. The two buffers agree between rounds, and only the
//     entries that fell are copied.
//
// The returned slice comes from the spare list when one is large
// enough (the memo retains it); the scratch buffers are reused across
// calls.
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
	if cap(e.distScratch) < e.n {
		e.distScratch = make([]float64, e.n)
	}
	next := e.distScratch[:e.n]
	for i := range cur {
		cur[i] = inf
	}
	cur[src] = 0
	copy(next, cur)
	words := (e.n + 63) / 64
	if cap(e.front) < words {
		e.front, e.fell = make([]uint64, words), make([]uint64, words)
	}
	front, fell := e.front[:words], e.fell[:words]
	clear(front)
	clear(fell)
	front[src/64] = 1 << (src % 64)
	for hop := 0; hop < e.hops; hop++ {
		for w, word := range front {
			for ; word != 0; word &= word - 1 {
				u := w<<6 | bits.TrailingZeros64(word)
				du := cur[u]
				for _, ed := range e.rows[u] {
					v := int(ed.to)
					if uint(v) >= uint(len(next)) || v == u {
						continue // a negative or self peer makes no arc
					}
					if d := du + ed.w; d < next[v] { // a NaN or +Inf weight never passes
						next[v] = d
						fell[v>>6] |= 1 << (v & 63)
					}
				}
				for _, ed := range e.rev[u] {
					v := int(ed.to)
					if d := du + ed.w; d < next[v] {
						next[v] = d
						fell[v>>6] |= 1 << (v & 63)
					}
				}
			}
		}
		changed := false
		for w, word := range fell {
			changed = changed || word != 0
			for ; word != 0; word &= word - 1 {
				v := w<<6 | bits.TrailingZeros64(word)
				cur[v] = next[v]
			}
		}
		if !changed {
			break
		}
		front, fell = fell, front
		clear(fell)
	}
	cur[src] = 0
	return cur
}
