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

	// adj is the merged matrix flattened into slice-indexed adjacency
	// lists, maintained incrementally as pairs change: estimating over
	// it is O(h·(V+E)) instead of O(h·V²). Each adj[u] is kept sorted by
	// target ID so membership is a binary search.
	n   int // node universe size: max known ID + 1
	adj [][]halfEdge

	// memoDist caches per-source distance slices over the current
	// adjacency. When the version moves its slices go to spare, which
	// shortestWithin draws from before allocating; distScratch is the
	// relaxation double-buffer.
	memoVer     uint64
	memoDist    [][]float64
	spare       [][]float64
	distScratch []float64

	stats Stats
}

// Stats counts an estimator's work. The counters depend only on the
// sequence of calls made on the estimator, never on timing, so they
// are deterministic wherever that sequence is.
type Stats struct {
	// RowsMerged counts rows installed by a merge because they differed
	// from the stored one (an equal row is not counted).
	RowsMerged uint64
	// PairsPatched counts adjacency pairs re-derived, by merges and by
	// ObserveMeeting.
	PairsPatched uint64
	// RowsPublished counts snapshots taken of the own row.
	RowsPublished uint64
	// ShortestPaths counts h-hop shortest-path runs (memo misses).
	ShortestPaths uint64
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.RowsMerged += o.RowsMerged
	s.PairsPatched += o.PairsPatched
	s.RowsPublished += o.RowsPublished
	s.ShortestPaths += o.ShortestPaths
}

// halfEdge is one directed arc of the flattened meeting matrix, or one
// entry of a sorted row.
type halfEdge struct {
	to packet.NodeID
	w  float64
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

// New returns an estimator for node self using an h-hop horizon
// (h <= 0 selects DefaultHops).
func New(self packet.NodeID, hops int) *Estimator {
	if hops <= 0 {
		hops = DefaultHops
	}
	e := &Estimator{self: self, hops: hops}
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
	e.rows[e.self] = upsert(e.rows[e.self], peer, ma.Value())
	e.unpublished = true
	e.patchPair(e.self, peer, ma.Value())
	e.version++
}

// Stats returns the work counters.
func (e *Estimator) Stats() Stats { return e.stats }

// ensureNode grows the dense per-node arrays to cover id.
func (e *Estimator) ensureNode(id packet.NodeID) {
	if id < 0 || int(id) < e.n {
		return
	}
	e.n = int(id) + 1
	for len(e.adj) < e.n {
		e.adj = append(e.adj, nil)
		e.direct = append(e.direct, nil)
		e.lastSeen = append(e.lastSeen, 0)
		e.rows = append(e.rows, nil)
		e.known = append(e.known, false)
	}
}

// patchPair re-derives the (u, v) edge weight from u's row entry for
// v, passed in as w (+Inf when u's row has none), and v's row entry for
// u, and patches the adjacency lists in place. The edge is the
// optimistic minimum of the two.
func (e *Estimator) patchPair(u, v packet.NodeID, w float64) {
	if u == v || v < 0 {
		return
	}
	e.ensureNode(v)
	e.stats.PairsPatched++
	best := math.Inf(1)
	if w < best { // a NaN weight makes no arc
		best = w
	}
	if d, ok := lookup(e.rows[v], u); ok && d < best {
		best = d
	}
	if math.IsInf(best, 1) {
		e.removeArc(u, v)
		e.removeArc(v, u)
		return
	}
	e.adj[u] = upsert(e.adj[u], v, best)
	e.adj[v] = upsert(e.adj[v], u, best)
}

// removeArc drops the directed arc u→v if present.
func (e *Estimator) removeArc(u, v packet.NodeID) {
	lst := e.adj[u]
	i := search(lst, v)
	if i >= len(lst) || lst[i].to != v {
		return
	}
	e.adj[u] = append(lst[:i], lst[i+1:]...)
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
	e.stats.RowsMerged++
	now := incoming
	inf := math.Inf(1)
	i, j := 0, 0
	for i < len(old) || j < len(now) {
		switch {
		case j == len(now) || (i < len(old) && old[i].to < now[j].to): // removed entry
			e.patchPair(owner, old[i].to, inf)
			i++
		case i == len(old) || now[j].to < old[i].to: // new entry
			e.patchPair(owner, now[j].to, now[j].w)
			j++
		default:
			if old[i].w != now[j].w {
				e.patchPair(owner, now[j].to, now[j].w)
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
// relaxation from src over the adjacency lists, yielding min-cost paths
// with at most h edges. Each round reads the previous round's
// distances, so a path can never accumulate more than h hops. The
// returned slice comes from the spare list when one is large enough (the
// memo retains it); the double-buffer partner is reused across calls.
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
	fresh := cur
	for i := range cur {
		cur[i] = inf
	}
	cur[src] = 0
	for hop := 0; hop < e.hops; hop++ {
		copy(next, cur)
		improved := false
		for u, du := range cur {
			if math.IsInf(du, 1) {
				continue
			}
			for _, ed := range e.adj[u] {
				if d := du + ed.w; d < next[ed.to] {
					next[ed.to] = d
					improved = true
				}
			}
		}
		cur, next = next, cur
		if !improved {
			break
		}
	}
	cur[src] = 0
	// An odd number of swaps leaves `cur` pointing at the scratch
	// buffer; copy back so the memoized row survives the next query.
	if &cur[0] != &fresh[0] {
		copy(fresh, cur)
		cur = fresh
	}
	return cur
}
