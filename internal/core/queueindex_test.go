package core

import (
	"rapid/internal/buffer"
	"rapid/internal/packet"
)

// QueueIndex precomputes, for one node's buffer, each packet's position
// in its per-destination delivery queue: b(i), the total size of
// packets that precede i (Fig. 1 of the paper). Queues are ordered
// oldest-first — "sorted in decreasing order of T(i) or time since
// creation — the order in which they would be delivered directly"
// (§4.1). RAPID itself reads b(i) off running byte sums in one walk of
// the destination queues, here and at the peer (queueCursor); the tests
// use this from-scratch lookup as their reference.
type QueueIndex struct {
	// byDst is indexed by the run's dense destination IDs; a packet's
	// position is found by binary search in its destination's queue.
	byDst [][]qent
}

// qent is one position in a destination queue, with the cumulative
// bytes of everything ahead of it.
type qent struct {
	created float64
	id      packet.ID
	size    int64
	cum     int64
}

// NewQueueIndex builds a fresh index for a store's current contents.
// The store maintains per-destination delivery-ordered queues, so the
// build is a linear prefix-sum pass — no scan-and-sort of the whole
// buffer.
func NewQueueIndex(store *buffer.Store) *QueueIndex {
	q := &QueueIndex{}
	store.EachQueue(func(dst packet.NodeID, queue []*buffer.Entry) {
		for len(q.byDst) <= int(dst) {
			q.byDst = append(q.byDst, nil)
		}
		ents := make([]qent, len(queue))
		var cum int64
		for i, e := range queue {
			ents[i] = qent{created: e.P.Created, id: e.P.ID, size: e.P.Size, cum: cum}
			cum += e.P.Size
		}
		q.byDst[dst] = ents
	})
	return q
}

// before reports whether e precedes p in delivery order.
func (e qent) before(p *packet.Packet) bool {
	return e.created < p.Created || (e.created == p.Created && e.id < p.ID)
}

// position returns p's destination queue and the index of its first
// entry not older than p. O(log q).
func (q *QueueIndex) position(p *packet.Packet) ([]qent, int) {
	var ents []qent
	if p.Dst >= 0 && int(p.Dst) < len(q.byDst) {
		ents = q.byDst[p.Dst]
	}
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if ents[mid].before(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ents, lo
}

// BytesAhead returns b(i) for a packet in the indexed buffer, or 0 for
// a packet not in it (for hypothetical placements use HypoBytesAhead).
func (q *QueueIndex) BytesAhead(p *packet.Packet) int64 {
	if ents, i := q.position(p); i < len(ents) && ents[i].id == p.ID {
		return ents[i].cum
	}
	return 0
}

// HypoBytesAhead computes b(i) as if p were inserted into the indexed
// buffer: the bytes of already-buffered packets to the same destination
// that are older than p: a replica's position at the contact peer.
func (q *QueueIndex) HypoBytesAhead(p *packet.Packet) int64 {
	// Everything before i is strictly older; if the packet itself sits
	// at i, its own bytes are not ahead of it.
	ents, i := q.position(p)
	if i < len(ents) && ents[i].id == p.ID {
		return ents[i].cum
	}
	if i == 0 {
		return 0
	}
	return ents[i-1].cum + ents[i-1].size
}
