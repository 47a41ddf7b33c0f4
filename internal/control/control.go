// Package control implements RAPID's control channel (§4.2): the
// in-band, byte-accounted exchange of acknowledgments, buffer
// inventories, per-replica delivery-delay estimates, average
// transfer-opportunity sizes, and meeting-time tables — with delta
// encoding ("The node only sends information about packets whose
// information changed since the last exchange"). It also provides the
// instant global channel used by the hybrid-DTN experiments
// (Figs. 10–13), in which all metadata is shared through a zero-cost
// hub: one State of no node that every node reads and writes.
package control

import (
	"cmp"
	"math"
	"slices"

	"rapid/internal/meet"
	"rapid/internal/packet"
	"rapid/internal/stat"
)

// Wire-size constants for metadata records, in bytes. These mirror a
// compact binary encoding: 8-byte packet IDs, 2-byte node IDs, 4-byte
// float/size fields.
const (
	AckRecordBytes     = 8  // packet id
	ReplicaRecordBytes = 14 // id + holder + delay estimate
	MeetEntryBytes     = 6  // peer + mean gap
	TableHeaderBytes   = 8  // owner + asOf + count
	ScalarBytes        = 8  // avg transfer size record

	// Buffer inventories are exchanged as compact summaries, not
	// per-packet records: a Bloom filter over packet IDs for duplicate
	// suppression (BloomBitsPerPacket per buffered packet at ~1% false
	// positives) plus a per-destination queue digest (age-bucketed byte
	// counts) that carries what Estimate-Delay needs to position
	// hypothetical replicas in the peer's queues. This keeps the
	// control channel at the paper's scale (metadata ≈ 0.02% of
	// bandwidth, Table 3) while conveying the same estimation inputs.
	BloomBitsPerPacket     = 10
	QueueDigestBytesPerDst = 8
)

// ReplicaEstimate is one replica's location and its holder-reported
// expected direct-delivery delay (E(M_XjZ) · n_j(i) in Eq. 9 terms).
type ReplicaEstimate struct {
	Holder packet.NodeID
	Delay  float64
	// Updated is when the estimate was produced; newer overwrites
	// older during exchanges.
	Updated float64
}

// PacketMeta is everything a node knows about a packet's replication
// state ("for each encountered packet i, rapid maintains a list of
// nodes that carry the replica of i, and for each replica, an estimated
// time for direct delivery").
type PacketMeta struct {
	ID       packet.ID
	Dst      packet.NodeID
	Size     int64
	Created  float64
	Deadline float64
	// Replicas is kept sorted by Holder; the slice layout (rather than
	// a map) keeps the per-packet utility evaluation allocation-free
	// and deterministic.
	Replicas []ReplicaEstimate
	// Updated is the latest local-knowledge change, for delta encoding.
	Updated float64

	// logAt is one past the owning State's metaLog index of this
	// record's latest changelog append (0 = never logged). Both writers,
	// NoteReplica and DropReplica, stamp it as they append, so "the
	// record has an append at or past index k" is logAt > k and replica
	// gossip needs no record IDs in the log.
	logAt int
}

// newMeta returns an empty record for the packet item describes.
func newMeta(item InventoryItem) *PacketMeta {
	return &PacketMeta{
		ID: item.ID, Dst: item.Dst, Size: item.Size,
		Created: item.Created, Deadline: item.Deadline,
	}
}

// replica returns the index of holder's entry in m.Replicas and whether
// it exists, by binary search.
func (m *PacketMeta) replica(holder packet.NodeID) (int, bool) {
	lo, hi := 0, len(m.Replicas)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Replicas[mid].Holder < holder {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.Replicas) && m.Replicas[lo].Holder == holder
}

// upsertReplica inserts or refreshes holder's estimate, preserving
// holder order and update-time monotonicity. It reports whether the
// update changed anything worth re-gossiping (a new replica, or a
// material delay movement).
func (m *PacketMeta) upsertReplica(holder packet.NodeID, delay, now float64) bool {
	i, ok := m.replica(holder)
	if ok {
		if now >= m.Replicas[i].Updated {
			changed := materialDelayChange(m.Replicas[i].Delay, delay)
			m.Replicas[i].Delay = delay
			m.Replicas[i].Updated = now
			return changed
		}
		return false
	}
	m.Replicas = append(m.Replicas, ReplicaEstimate{})
	copy(m.Replicas[i+1:], m.Replicas[i:])
	m.Replicas[i] = ReplicaEstimate{Holder: holder, Delay: delay, Updated: now}
	return true
}

// InventoryItem describes one buffered packet in a node's inventory
// announcement, including the holder's own fresh delivery estimate.
type InventoryItem struct {
	ID       packet.ID
	Dst      packet.NodeID
	Size     int64
	Created  float64
	Deadline float64
	// Delay is the announcing node's current estimated time to deliver
	// the packet directly to its destination.
	Delay float64
	Hops  int
}

// Options configures one metadata exchange.
type Options struct {
	// MaxBytes caps metadata bytes for this exchange; < 0 means
	// unlimited (the paper's default: "We allow rapid to use as much
	// bandwidth at the start of a transfer opportunity ... as it
	// requires"). 0 disables metadata entirely.
	MaxBytes int64
	// LocalOnly suppresses third-party replica records — the
	// rapid-local component of the Fig. 14 ablation.
	LocalOnly bool
	// AcksOnly exchanges only delivery acknowledgments (the
	// "Random with acks" component, and MaxProp's notification flood).
	AcksOnly bool
}

// Result summarizes an exchange for accounting (Fig. 9 reports
// metadata as a fraction of data and of bandwidth).
type Result struct {
	Bytes     int64 // total metadata bytes transferred (both directions)
	Acks      int
	Inventory int
	Replicas  int
	Tables    int
	Truncated bool // the MaxBytes cap cut the exchange short
}

// State is one node's control-plane state. Construct with NewState.
type State struct {
	self packet.NodeID
	// Meet is the meeting-time estimator fed by this control plane.
	Meet *meet.Estimator

	// hub is the instant global channel's shared state (NewHub), nil
	// in-band. A node on the global channel keeps its acks, records and
	// peers' transfer averages there, not in its own fields (knows).
	hub *State

	avgTransfer stat.MovingAverage

	// acked is the node's set of known-delivered packets; meta holds
	// its replica records in a paged packet-ID table, which costs 16
	// bytes of directory per 1024 IDs up to the highest ID recorded,
	// plus 8 bytes per record on a sparse page or 8 KiB per dense one
	// (packet.Table). Only protocols that read or gossip records write
	// them (routing's acceptReplica), so the others pay nothing. A
	// node's records list only other holders: nothing in-band reads an
	// entry for the node's own copy (NoteReplica). The hub, a state of
	// no node, lists every holder.
	acked ackSet
	meta  packet.Table[PacketMeta]
	// tableAsOf is the freshness of each owner's meet table, indexed by
	// owner (0 = unknown, the delta baseline). It is raised for every
	// table merged and for each exchange peer, whose table may never
	// have arrived if the exchange was truncated.
	tableAsOf []float64

	// ackLog holds the times at which the acks in ackIDs were learned,
	// in learning order, so delta exchanges scan only the acks learned
	// since the last exchange with a peer, not the whole ack set (which
	// grows with every packet ever delivered). Acks are learned at the
	// current time, so ackLog is time-ordered. The hub gossips with no
	// one, so it keeps neither changelog (logs).
	ackLog []float64
	ackIDs []packet.ID
	// metaLog holds the time of every replica-record changelog append;
	// PacketMeta.logAt says which record an append belongs to. It is
	// NOT time-ordered: gossip re-logs a record at its origin time
	// rep.Updated, which may lie before earlier appends. Replica gossip
	// cuts it with the same bisection as ackLog (logCut), and keeps
	// that cut exactly: it decides which records a peer is sent.
	metaLog []float64
	// ackScratch and invScratch are reused buffers for the ack delta
	// (the acks a peer lacks) and the changed records of the packets a
	// peer carries (changedIDs); one exchange runs at a time per node.
	// dstMark stamps, per destination node ID, the dstStamp of the
	// inventory digest that last counted it.
	ackScratch []packet.ID
	invScratch []packet.ID
	dstMark    []uint32
	dstStamp   uint32

	// peers holds what the node keeps about each peer it exchanged
	// with, sorted by peer. A peer never exchanged with has no entry.
	// The hub keeps one entry per node that observed a transfer.
	peers []peerEntry
}

// peerEntry is what a node keeps about one peer it exchanged with.
type peerEntry struct {
	peer packet.NodeID
	// at is the time of the previous exchange with the peer. An entry
	// the current exchange created reads 0 until finishExchange stamps
	// it, the epoch default the delta encoding expects of a peer never
	// exchanged with.
	at float64
	// transfer is the peer's last announced average transfer size (NaN
	// = never heard).
	transfer float64
}

// logCut bisects a changelog for the first entry with t > since. On a
// time-ordered log every entry from the cut on is newer than since; on
// metaLog, which is not time-ordered, the cut is merely where this
// bisection lands, and replica gossip depends on it landing exactly
// here. The entry before the cut, if any, is never newer than since.
func logCut(log []float64, since float64) int {
	lo, hi := 0, len(log)
	for lo < hi {
		mid := (lo + hi) / 2
		if log[mid] <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NewState returns an empty control state for node self with an h-hop
// meeting estimator. If hub is non-nil the node participates in the
// instant global channel: all queries read and all updates write the
// hub, and the node's estimator holds only its own row.
func NewState(self packet.NodeID, hops int, hub *State) *State {
	return &State{
		self: self,
		Meet: meet.New(self, hops),
		hub:  hub,
	}
}

// NewHub returns the empty shared state of an instant global channel
// whose meeting matrix has an h-hop horizon: a state of no node
// ("In our experiments, we assumed that the global channel is
// instant", §6.2.3). Its Meet is an estimator with no own row, into
// which each exchange merges its two endpoints' rows.
func NewHub(hops int) *State {
	return NewState(-1, hops, nil)
}

// Global reports whether this state runs over the instant global
// channel.
func (s *State) Global() bool { return s.hub != nil }

// knows returns the state that holds this node's acks, replica records,
// peers' transfer averages and meeting matrix: the hub on the global
// channel, the node itself in-band.
func (s *State) knows() *State {
	if s.hub != nil {
		return s.hub
	}
	return s
}

// logs reports whether s keeps changelogs for delta gossip. The hub
// gossips with no one, so it keeps none.
func (s *State) logs() bool { return s.self >= 0 }

// Expected returns the expected time for node from to meet node to
// within the estimator's hop horizon, as this node knows it: from the
// shared matrix on the global channel, from the node's own estimator
// in-band.
func (s *State) Expected(from, to packet.NodeID) float64 {
	return s.knows().Meet.Expected(from, to)
}

// ObserveTransfer folds a transfer-opportunity size into the node's
// moving average ("the average size of past transfers"). On the global
// channel the new average is published to the hub at once.
func (s *State) ObserveTransfer(bytes int64) {
	s.avgTransfer.Observe(float64(bytes))
	if s.hub != nil {
		s.hub.setPeerTransfer(s.self, s.avgTransfer.Value())
	}
}

// AvgTransferBytes returns this node's own average opportunity size, or
// def when nothing has been observed yet.
func (s *State) AvgTransferBytes(def float64) float64 {
	if s.avgTransfer.N() == 0 {
		return def
	}
	return s.avgTransfer.Value()
}

// AvgTransferOf returns the best-known average opportunity size of any
// node (B_j in Estimate-Delay), falling back to def.
func (s *State) AvgTransferOf(node packet.NodeID, def float64) float64 {
	if node == s.self {
		return s.AvgTransferBytes(def)
	}
	k := s.knows()
	if i, ok := k.peerAt(node); ok && !math.IsNaN(k.peers[i].transfer) {
		return k.peers[i].transfer
	}
	return def
}

// LearnAck records that a packet has been delivered. Metadata for
// delivered packets is deleted (§4.2).
func (s *State) LearnAck(id packet.ID, now float64) {
	k := s.knows()
	if !k.acked.add(id) {
		return
	}
	if k.logs() {
		k.ackLog = append(k.ackLog, now)
		k.ackIDs = append(k.ackIDs, id)
	}
	k.meta.Delete(id)
}

// IsAcked reports whether the packet is known to be delivered.
func (s *State) IsAcked(id packet.ID) bool {
	return s.knows().acked.has(id)
}

// NoteReplica records (or refreshes) knowledge that `holder` carries a
// replica with the given delivery-delay estimate. A node drops a note
// of its own copy: its estimators price their own copy afresh, its
// inventories announce that estimate, and replica gossip skips it, so
// nothing would read the entry. The hub is no node's, so it keeps every
// holder's entry for the other nodes to read.
func (s *State) NoteReplica(item InventoryItem, holder packet.NodeID, now float64) {
	k := s.knows()
	if holder == k.self || k.acked.has(item.ID) {
		return
	}
	m := k.meta.Get(item.ID)
	if m == nil {
		m = newMeta(item)
		k.meta.Set(item.ID, m)
	}
	// Immaterial delay wiggles are not worth re-flooding.
	if m.upsertReplica(holder, item.Delay, now) {
		k.logMeta(m, now)
	}
}

// logMeta records a change to m at time t: it appends t to the
// changelog and stamps m with the append's position.
func (s *State) logMeta(m *PacketMeta, t float64) {
	m.Updated = t
	if s.logs() {
		s.metaLog = append(s.metaLog, t)
		m.logAt = len(s.metaLog)
	}
}

// DropReplica forgets that holder carries the packet. No simulation
// path calls it: a node that evicts a replica does not retract it, so
// the evicted holder stays in every record that lists it until the
// packet is acked.
func (s *State) DropReplica(id packet.ID, holder packet.NodeID, now float64) {
	k := s.knows()
	if m := k.meta.Get(id); m != nil {
		m.removeReplica(holder)
		k.logMeta(m, now)
	}
}

// removeReplica drops holder's entry if present.
func (m *PacketMeta) removeReplica(holder packet.NodeID) {
	if i, ok := m.replica(holder); ok {
		m.Replicas = append(m.Replicas[:i], m.Replicas[i+1:]...)
	}
}

// Replicas returns the known replica estimates for a packet, sorted by
// holder. The slice is the live internal state — callers must not
// modify it or retain it across state mutations.
func (s *State) Replicas(id packet.ID) []ReplicaEstimate {
	if m := s.Meta(id); m != nil {
		return m.Replicas
	}
	return nil
}

// ReplicaCount returns the number of known replicas of a packet
// (at least 0; the local copy is included only if announced).
func (s *State) ReplicaCount(id packet.ID) int {
	return len(s.Replicas(id))
}

// Meta returns the stored metadata for a packet (nil if unknown).
func (s *State) Meta(id packet.ID) *PacketMeta {
	return s.knows().meta.Get(id)
}

// Exchange performs the bidirectional metadata exchange between nodes a
// and b at a meeting. invA/invB are the nodes' current buffer
// inventories with fresh delay estimates. It returns the byte cost
// (zero in global mode — the channel is out of band).
//
// Exchange order, mirroring §4.2's list and degrading gracefully under
// a byte cap: acknowledgments first (cheapest, highest value), then
// average transfer sizes, then buffer inventories, then meeting-time
// tables, then changed third-party replica records.
func Exchange(a, b *State, invA, invB []InventoryItem, now float64, opts Options) Result {
	var res Result
	// Both sides always observe the meeting itself — discovering the
	// peer is free (radio-layer neighbor discovery).
	a.Meet.ObserveMeeting(b.self, now)
	b.Meet.ObserveMeeting(a.self, now)

	if a.hub != nil && b.hub != nil {
		// Instant global channel: everything is already shared; the
		// in-band exchange carries nothing. Inventories still update
		// the hub (they carry fresh delay estimates), and the two
		// endpoints' own rows, the only ones a meeting changes, are
		// merged into the shared matrix, which stays globally current.
		for _, it := range invA {
			a.NoteReplica(it, a.self, now)
		}
		for _, it := range invB {
			b.NoteReplica(it, b.self, now)
		}
		a.hub.Meet.MergeTableFrom(a.Meet, a.self)
		a.hub.Meet.MergeTableFrom(b.Meet, b.self)
		return res
	}

	budget := opts.MaxBytes
	unlimited := budget < 0
	spend := func(n int64) bool {
		if unlimited {
			res.Bytes += n
			return true
		}
		if budget < n {
			res.Truncated = true
			return false
		}
		budget -= n
		res.Bytes += n
		return true
	}

	// 1. Acknowledgments, delta since the last exchange with this peer.
	// Acks the receiver already knows are suppressed by the summary
	// vector that prefixes a real exchange, so they cost nothing here
	// and acksSince leaves them out.
	sinceA := a.lastExchangeWith(b.self)
	sinceB := b.lastExchangeWith(a.self)
	for _, pair := range []struct {
		from, to *State
		since    float64
	}{{a, b, sinceA}, {b, a, sinceB}} {
		for _, id := range pair.from.acksSince(pair.since, pair.to) {
			if !spend(AckRecordBytes) {
				return finishExchange(a, b, now, res)
			}
			pair.to.LearnAck(id, now)
			res.Acks++
		}
	}
	if opts.AcksOnly {
		return finishExchange(a, b, now, res)
	}

	// 2. Average transfer sizes (one scalar each way).
	if spend(2 * ScalarBytes) {
		if a.avgTransfer.N() > 0 {
			b.setPeerTransfer(a.self, a.avgTransfer.Value())
		}
		if b.avgTransfer.N() > 0 {
			a.setPeerTransfer(b.self, b.avgTransfer.Value())
		}
	} else {
		return finishExchange(a, b, now, res)
	}

	// 3. Buffer inventories, encoded as a Bloom digest plus
	// per-destination queue digests (see the wire-size constants). The
	// holder's own delay estimates ride the digest ("For each of its
	// own packets, the updated delivery delay estimate based on current
	// buffer state"); the receiver records them under the sender, and
	// the sender keeps no record of its own copies (NoteReplica).
	for _, dir := range []struct {
		from, to *State
		inv      []InventoryItem
	}{{a, b, invA}, {b, a, invB}} {
		if len(dir.inv) == 0 {
			continue
		}
		cost := int64(len(dir.inv)*BloomBitsPerPacket+7)/8 +
			int64(dir.from.countDsts(dir.inv))*QueueDigestBytesPerDst
		if !spend(cost) {
			return finishExchange(a, b, now, res)
		}
		for _, it := range dir.inv {
			if dir.to.IsAcked(it.ID) {
				continue
			}
			dir.to.NoteReplica(it, dir.from.self, now)
			res.Inventory++
		}
	}

	// 4. Meeting-time tables (gossip of all known tables, delta by
	// freshness).
	for _, dir := range []struct{ from, to *State }{{a, b}, {b, a}} {
		own, _ := dir.from.Meet.RowLen(dir.from.self)
		if !spendTable(dir.from, dir.to, dir.from.self, own, now, spend, &res) {
			return finishExchange(a, b, now, res)
		}
		// Owners go out in ID order. Every row known here came through
		// spendTable, which raised its owner's freshness; an owner
		// whose freshness is still 0 never beats the receiver's.
		for i, asOf := range dir.from.tableAsOf {
			owner := packet.NodeID(i)
			if owner == dir.to.self || owner == dir.from.self {
				continue
			}
			if asOf <= dir.to.tableAsOfFor(owner) {
				continue
			}
			entries, known := dir.from.Meet.RowLen(owner)
			if !known {
				continue // registered by a truncated exchange, never merged
			}
			if !spendTable(dir.from, dir.to, owner, entries, asOf, spend, &res) {
				return finishExchange(a, b, now, res)
			}
		}
	}

	// 5. Third-party replica records changed since the last exchange,
	// scoped to packets the receiver is carrying: a node cares about
	// the other replicas of packets in its own buffer (they set A(i) in
	// Eq. 8); gossiping every replica of every packet network-wide
	// would swamp the channel (and the paper's 0.02%-of-bandwidth
	// budget) with records no utility computation reads.
	//
	// A record is changed since the last exchange when it has a
	// changelog append at or past the log's cut for `since` (logAt > k)
	// and its latest change is newer than `since`. Records go out in
	// packet-ID order, then holder order: byte-cap truncation and the
	// receiver's own changelog depend on that order.
	if !opts.LocalOnly {
		for _, dir := range []struct {
			from, to *State
			toInv    []InventoryItem
			since    float64
		}{{a, b, invB, sinceA}, {b, a, invA, sinceB}} {
			k := logCut(dir.from.metaLog, dir.since)
			if k == len(dir.from.metaLog) {
				continue // no record has an append past the cut
			}
			for _, id := range dir.from.changedIDs(dir.toInv, k, dir.since) {
				m := dir.from.meta.Get(id)
				for _, rep := range m.Replicas {
					if rep.Holder == dir.from.self || rep.Holder == dir.to.self {
						continue // covered by inventories
					}
					if rep.Updated <= dir.since {
						continue
					}
					if !spend(ReplicaRecordBytes) {
						return finishExchange(a, b, now, res)
					}
					dir.to.NoteReplica(InventoryItem{
						ID: m.ID, Dst: m.Dst, Size: m.Size,
						Created: m.Created, Deadline: m.Deadline,
						Delay: rep.Delay,
					}, rep.Holder, rep.Updated)
					res.Replicas++
				}
			}
		}
	}
	return finishExchange(a, b, now, res)
}

// spendTable transmits owner's meeting table of the given entry count
// from `from` to `to`, charging its wire size against the exchange
// budget. The merge itself runs estimator-to-estimator
// (MergeTableFrom).
func spendTable(from, to *State, owner packet.NodeID, entries int, asOf float64, spend func(int64) bool, res *Result) bool {
	cost := TableHeaderBytes + int64(entries)*MeetEntryBytes
	if !spend(cost) {
		return false
	}
	to.Meet.MergeTableFrom(from.Meet, owner)
	to.raiseTableAsOf(owner, asOf)
	res.Tables++
	return true
}

// tableAsOfFor returns the freshness of owner's merged table (0 =
// unknown, the delta baseline).
func (s *State) tableAsOfFor(owner packet.NodeID) float64 {
	if owner < 0 || int(owner) >= len(s.tableAsOf) {
		return 0
	}
	return s.tableAsOf[owner]
}

// raiseTableAsOf records table freshness (freshness only ever
// advances).
func (s *State) raiseTableAsOf(owner packet.NodeID, asOf float64) {
	if owner < 0 {
		return
	}
	for len(s.tableAsOf) <= int(owner) {
		s.tableAsOf = append(s.tableAsOf, 0)
	}
	if asOf > s.tableAsOf[owner] {
		s.tableAsOf[owner] = asOf
	}
}

// peerAt returns the position peer occupies, or would occupy, in peers
// and whether it is there.
func (s *State) peerAt(peer packet.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.peers, peer, func(p peerEntry, id packet.NodeID) int { return cmp.Compare(p.peer, id) })
}

// entryFor returns peer's entry, inserting an empty one if absent.
func (s *State) entryFor(peer packet.NodeID) *peerEntry {
	i, ok := s.peerAt(peer)
	if !ok {
		s.peers = slices.Insert(s.peers, i, peerEntry{peer: peer, transfer: math.NaN()})
	}
	return &s.peers[i]
}

// lastExchangeWith returns the time of the previous exchange with peer
// (0 = never, the epoch default).
func (s *State) lastExchangeWith(peer packet.NodeID) float64 {
	if i, ok := s.peerAt(peer); ok {
		return s.peers[i].at
	}
	return 0
}

// setPeerTransfer records a peer's announced average transfer size.
func (s *State) setPeerTransfer(peer packet.NodeID, v float64) {
	s.entryFor(peer).transfer = v
}

// finishExchange stamps the per-peer exchange times and settles both
// estimators, now that every row of the exchange is in.
func finishExchange(a, b *State, now float64, res Result) Result {
	a.entryFor(b.self).at = now
	b.entryFor(a.self).at = now
	// Record the freshness of each other's own tables.
	a.raiseTableAsOf(b.self, now)
	b.raiseTableAsOf(a.self, now)
	a.Meet.Settle()
	b.Meet.Settle()
	return res
}

// acksSince returns the ack IDs learned after `since` that `to` does
// not know yet, sorted for determinism. The changelog makes this
// O(changed), not O(all acks), and only the acks `to` lacks are sorted;
// the returned slice is a reused scratch valid until the next call.
func (s *State) acksSince(since float64, to *State) []packet.ID {
	out := s.ackScratch[:0]
	for _, id := range s.ackIDs[logCut(s.ackLog, since):] {
		if !to.IsAcked(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	s.ackScratch = out
	return out
}

// changedIDs returns the distinct packet IDs of inv whose record at s
// changed since the last exchange — it has an append past the log's
// cut k and a latest change after since — in ascending order, in a
// reused scratch valid until the next call. Only the survivors are
// sorted. Filtering first is exact: the gossip loop that consumes the
// IDs writes only the receiver's state, never s's records.
func (s *State) changedIDs(inv []InventoryItem, k int, since float64) []packet.ID {
	out := s.invScratch[:0]
	for _, it := range inv {
		if m := s.meta.Get(it.ID); m != nil && m.logAt > k && m.Updated > since {
			out = append(out, it.ID)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	s.invScratch = out
	return out
}

// countDsts returns the number of distinct destinations in inv, marking
// each in the dense dstMark slice with a fresh stamp. Destinations are
// node IDs, so they lie in [0, trace.MaxNodeID).
func (s *State) countDsts(inv []InventoryItem) int {
	s.dstStamp++
	if s.dstStamp == 0 { // wrapped: old stamps could collide
		clear(s.dstMark)
		s.dstStamp = 1
	}
	n := 0
	for _, it := range inv {
		for len(s.dstMark) <= int(it.Dst) {
			s.dstMark = append(s.dstMark, 0)
		}
		if s.dstMark[it.Dst] != s.dstStamp {
			s.dstMark[it.Dst] = s.dstStamp
			n++
		}
	}
	return n
}

// materialDelayChange reports whether a delay estimate moved enough to
// be worth re-announcing (25% relative, or a reachability flip).
func materialDelayChange(old, new float64) bool {
	oldInf, newInf := math.IsInf(old, 1), math.IsInf(new, 1)
	if oldInf != newInf {
		return true
	}
	if oldInf && newInf {
		return false
	}
	base := math.Max(math.Abs(old), 1e-9)
	return math.Abs(new-old)/base > 0.25
}
