package control

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"rapid/internal/packet"
)

// refState is one node of the reference world FuzzReplicaGossip checks
// Exchange against: a State whose ack and replica changelogs are
// shadowed by (time, packet ID) logs, over which the reference
// selection runs: scan the sender's changelog past the cut, dedup and
// sort it (refMetaChangedSince), then keep what the receiver carries
// (refInventoryIDs). The reference also keeps its own sorted record of
// the meet-table owners it heard of, which its table gossip walks.
// Acks, replica records, meet tables and their freshness still live in
// the embedded State; only the logs, the owner record and the
// selections are the reference's.
type refState struct {
	*State
	ackLog      []refEvent
	metaLog     []refEvent
	owners      []packet.NodeID
	ackScratch  []packet.ID
	metaScratch []*PacketMeta
	seenEpoch   uint64
	seen        map[*PacketMeta]uint64
}

type refEvent struct {
	t  float64
	id packet.ID
}

func newRefState(self packet.NodeID) *refState {
	return &refState{State: NewState(self, 3, nil), seen: map[*PacketMeta]uint64{}}
}

func (r *refState) learnAck(id packet.ID, now float64) {
	if !r.IsAcked(id) {
		r.ackLog = append(r.ackLog, refEvent{t: now, id: id})
	}
	r.LearnAck(id, now)
}

// noteReplica and dropReplica shadow a changelog append of the
// embedded State with one (time, ID) event.
func (r *refState) noteReplica(item InventoryItem, holder packet.NodeID, now float64) {
	n := len(r.State.metaLog)
	r.NoteReplica(item, holder, now)
	if len(r.State.metaLog) > n {
		r.metaLog = append(r.metaLog, refEvent{t: now, id: item.ID})
	}
}

func (r *refState) dropReplica(id packet.ID, holder packet.NodeID, now float64) {
	n := len(r.State.metaLog)
	r.DropReplica(id, holder, now)
	if len(r.State.metaLog) > n {
		r.metaLog = append(r.metaLog, refEvent{t: now, id: id})
	}
}

// hear records that r learned the freshness of owner's meet table.
func (r *refState) hear(owner packet.NodeID) {
	if i, ok := slices.BinarySearch(r.owners, owner); !ok {
		r.owners = slices.Insert(r.owners, i, owner)
	}
}

func refEventsAfter(log []refEvent, since float64) []refEvent {
	lo, hi := 0, len(log)
	for lo < hi {
		mid := (lo + hi) / 2
		if log[mid].t <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return log[lo:]
}

func (r *refState) acksSince(since float64) []packet.ID {
	evs := refEventsAfter(r.ackLog, since)
	out := r.ackScratch[:0]
	for _, ev := range evs {
		out = append(out, ev.id)
	}
	slices.Sort(out)
	r.ackScratch = out
	return out
}

// refMetaChangedSince returns metadata entries updated after `since`,
// sorted by packet ID, deduplicated from the changelog.
func (r *refState) refMetaChangedSince(since float64) []*PacketMeta {
	evs := refEventsAfter(r.metaLog, since)
	r.seenEpoch++
	out := r.metaScratch[:0]
	for _, ev := range evs {
		m := r.meta.Get(ev.id)
		if m == nil || r.seen[m] == r.seenEpoch {
			continue
		}
		r.seen[m] = r.seenEpoch
		if m.Updated > since {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b *PacketMeta) int { return cmp.Compare(a.ID, b.ID) })
	r.metaScratch = out
	return out
}

// refInventoryIDs collects the packet IDs of an inventory.
func refInventoryIDs(inv []InventoryItem) map[packet.ID]bool {
	ids := make(map[packet.ID]bool, len(inv))
	for _, it := range inv {
		ids[it.ID] = true
	}
	return ids
}

// refExchange is Exchange's in-band path with the reference replica
// selection and map-based digest and inventory sets.
func refExchange(a, b *refState, invA, invB []InventoryItem, now float64, opts Options) Result {
	var res Result
	a.Meet.ObserveMeeting(b.self, now)
	b.Meet.ObserveMeeting(a.self, now)

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
	finish := func() Result {
		a.hear(b.self)
		b.hear(a.self)
		return finishExchange(a.State, b.State, now, res)
	}

	sinceA := a.lastExchangeWith(b.self)
	sinceB := b.lastExchangeWith(a.self)
	for _, pair := range []struct {
		from, to *refState
		since    float64
	}{{a, b, sinceA}, {b, a, sinceB}} {
		ids := pair.from.acksSince(pair.since)
		for _, id := range ids {
			if pair.to.IsAcked(id) {
				continue
			}
			if !spend(AckRecordBytes) {
				return finish()
			}
			pair.to.learnAck(id, now)
			res.Acks++
		}
	}
	if opts.AcksOnly {
		return finish()
	}

	if spend(2 * ScalarBytes) {
		if a.avgTransfer.N() > 0 {
			b.setPeerTransfer(a.self, a.avgTransfer.Value())
		}
		if b.avgTransfer.N() > 0 {
			a.setPeerTransfer(b.self, b.avgTransfer.Value())
		}
	} else {
		return finish()
	}

	for _, dir := range []struct {
		from, to *refState
		inv      []InventoryItem
	}{{a, b, invA}, {b, a, invB}} {
		if len(dir.inv) == 0 {
			continue
		}
		dsts := map[packet.NodeID]bool{}
		for _, it := range dir.inv {
			dsts[it.Dst] = true
		}
		cost := int64(len(dir.inv)*BloomBitsPerPacket+7)/8 +
			int64(len(dsts))*QueueDigestBytesPerDst
		if !spend(cost) {
			return finish()
		}
		for _, it := range dir.inv {
			dir.from.noteReplica(it, dir.from.self, now)
			if dir.to.IsAcked(it.ID) {
				continue
			}
			dir.to.noteReplica(it, dir.from.self, now)
			res.Inventory++
		}
	}

	for _, dir := range []struct{ from, to *refState }{{a, b}, {b, a}} {
		own, _ := dir.from.Meet.RowLen(dir.from.self)
		if !spendTable(dir.from.State, dir.to.State, dir.from.self, own, now, spend, &res) {
			return finish()
		}
		dir.to.hear(dir.from.self)
		for _, owner := range dir.from.owners {
			if owner == dir.to.self || owner == dir.from.self {
				continue
			}
			asOf := dir.from.tableAsOfFor(owner)
			if asOf <= dir.to.tableAsOfFor(owner) {
				continue
			}
			entries, known := dir.from.Meet.RowLen(owner)
			if !known {
				continue
			}
			if !spendTable(dir.from.State, dir.to.State, owner, entries, asOf, spend, &res) {
				return finish()
			}
			dir.to.hear(owner)
		}
	}

	if !opts.LocalOnly {
		idsA := refInventoryIDs(invA)
		idsB := refInventoryIDs(invB)
		for _, dir := range []struct {
			from, to *refState
			toIDs    map[packet.ID]bool
			since    float64
		}{{a, b, idsB, sinceA}, {b, a, idsA, sinceB}} {
			for _, m := range dir.from.refMetaChangedSince(dir.since) {
				if !dir.toIDs[m.ID] {
					continue
				}
				for _, rep := range m.Replicas {
					if rep.Holder == dir.from.self || rep.Holder == dir.to.self {
						continue
					}
					if rep.Updated <= dir.since {
						continue
					}
					if !spend(ReplicaRecordBytes) {
						return finish()
					}
					dir.to.noteReplica(InventoryItem{
						ID: m.ID, Dst: m.Dst, Size: m.Size,
						Created: m.Created, Deadline: m.Deadline,
						Delay: rep.Delay,
					}, rep.Holder, rep.Updated)
					res.Replicas++
				}
			}
		}
	}
	return finish()
}

// byteStream feeds fuzz input to the sequence generator; an exhausted
// stream yields zeros.
type byteStream []byte

// intn returns the next input byte reduced mod n (0 for n <= 1).
func (s *byteStream) intn(n int) int {
	if n <= 1 || len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// gossipDelays are the delay estimates fuzzed inventories announce:
// neighbours within 25% of each other refresh a replica without a
// changelog append, the rest (and the reachability flip) log one.
var gossipDelays = []float64{10, 11, 40, 100, 110, math.Inf(1)}

// FuzzReplicaGossip runs random exchange sequences among 3–6 nodes in
// two worlds, Exchange over States and refExchange over refStates:
// random unsorted inventories (with the odd duplicate entry), delay
// refreshes with and without a changelog append, LearnAck,
// DropReplica, same-instant meetings, MaxBytes caps that can cut any
// step, LocalOnly and AcksOnly. Gossip re-logs records at their origin
// times, so the replica changelogs go out of time order. After every
// exchange both worlds must agree on the Result and, per node, on
// every replica record, the acks, and both changelogs.
func FuzzReplicaGossip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x00\x00\x01\x00\x01\x01\x00\x02\x06\x00\x01\x00\x05\x01\x06\x01\x02\x00\x05\x02\x06\x02\x00\x00\x06\x00\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		const packets = 8
		n := 3 + in.intn(4)
		states := make([]*State, n)
		refs := make([]*refState, n)
		invs := make([][]InventoryItem, n)
		for i := range states {
			states[i] = NewState(packet.NodeID(i), 3, nil)
			refs[i] = newRefState(packet.NodeID(i))
		}
		item := func(id packet.ID, delay float64) InventoryItem {
			return InventoryItem{
				ID: id, Dst: packet.NodeID(int(id) % n), Size: 100 * int64(1+id),
				Created: float64(id), Deadline: 1000 + float64(id), Delay: delay,
			}
		}
		now := 0.0
		for op := 0; op < 64 && len(in) > 0; op++ {
			v := in.intn(n)
			id := packet.ID(in.intn(packets))
			inv := invs[v]
			at := slices.IndexFunc(inv, func(it InventoryItem) bool { return it.ID == id })
			switch in.intn(10) {
			case 0, 1: // buffer a packet, re-estimate it, or list it twice
				delay := gossipDelays[in.intn(len(gossipDelays))]
				if at < 0 || in.intn(4) == 0 {
					invs[v] = append(inv, item(id, delay))
				} else {
					inv[at].Delay = delay
				}
			case 2: // evict it, as buffer.Store does: swap with the last
				if at >= 0 {
					inv[at] = inv[len(inv)-1]
					invs[v] = inv[:len(inv)-1]
				}
			case 3:
				states[v].LearnAck(id, now)
				refs[v].learnAck(id, now)
			case 4:
				holder := packet.NodeID(in.intn(n))
				states[v].DropReplica(id, holder, now)
				refs[v].dropReplica(id, holder, now)
			case 5:
				now += 5 * float64(1+in.intn(4))
			default:
				w := (v + 1 + in.intn(n-1)) % n
				opts := Options{MaxBytes: -1}
				if in.intn(2) == 0 {
					opts.MaxBytes = 12 * int64(in.intn(64))
				}
				switch in.intn(8) {
				case 0:
					opts.LocalOnly = true
				case 1:
					opts.AcksOnly = true
				}
				got := Exchange(states[v], states[w], invs[v], invs[w], now, opts)
				want := refExchange(refs[v], refs[w], invs[v], invs[w], now, opts)
				if got != want {
					t.Fatalf("op %d: exchange %d→%d at %v (%+v): got %+v, reference %+v", op, v, w, now, opts, got, want)
				}
				for i := range states {
					compareGossipState(t, op, states[i], refs[i], n, packets)
				}
			}
		}
	})
}

// compareGossipState fails t unless s and r hold the same acks, ack
// changelog, replica records, replica changelog times, and meet tables
// and their freshness for every owner among the nodes.
func compareGossipState(t *testing.T, op int, s *State, r *refState, nodes, packets int) {
	t.Helper()
	for owner := packet.NodeID(0); owner < packet.NodeID(nodes); owner++ {
		n, known := s.Meet.RowLen(owner)
		rn, rknown := r.Meet.RowLen(owner)
		if n != rn || known != rknown || s.tableAsOfFor(owner) != r.tableAsOfFor(owner) {
			t.Fatalf("op %d node %d: owner %d table (%d entries, known %v, as of %v), reference (%d, %v, %v)",
				op, s.self, owner, n, known, s.tableAsOfFor(owner), rn, rknown, r.tableAsOfFor(owner))
		}
	}
	if len(s.ackLog) != len(r.ackLog) {
		t.Fatalf("op %d node %d: %d acks logged, reference %d", op, s.self, len(s.ackLog), len(r.ackLog))
	}
	for i, ev := range r.ackLog {
		if s.ackLog[i] != ev.t || s.ackIDs[i] != ev.id {
			t.Fatalf("op %d node %d: ack log entry %d is (%v, %d), reference (%v, %d)",
				op, s.self, i, s.ackLog[i], s.ackIDs[i], ev.t, ev.id)
		}
	}
	if len(s.metaLog) != len(r.metaLog) {
		t.Fatalf("op %d node %d: %d replica changes logged, reference %d", op, s.self, len(s.metaLog), len(r.metaLog))
	}
	for i, ev := range r.metaLog {
		if math.Float64bits(s.metaLog[i]) != math.Float64bits(ev.t) {
			t.Fatalf("op %d node %d: replica log entry %d at %v, reference %v", op, s.self, i, s.metaLog[i], ev.t)
		}
	}
	for id := packet.ID(0); id < packet.ID(packets); id++ {
		if s.IsAcked(id) != r.IsAcked(id) {
			t.Fatalf("op %d node %d: packet %d acked %v, reference %v", op, s.self, id, s.IsAcked(id), r.IsAcked(id))
		}
		m, rm := s.Meta(id), r.Meta(id)
		if (m == nil) != (rm == nil) {
			t.Fatalf("op %d node %d: packet %d record %v, reference %v", op, s.self, id, m, rm)
		}
		if m == nil {
			continue
		}
		if math.Float64bits(m.Updated) != math.Float64bits(rm.Updated) || !slices.Equal(m.Replicas, rm.Replicas) {
			t.Fatalf("op %d node %d: packet %d record updated %v replicas %+v, reference updated %v replicas %+v",
				op, s.self, id, m.Updated, m.Replicas, rm.Updated, rm.Replicas)
		}
	}
}
