// Package buffer implements per-node packet storage with byte-capacity
// accounting and utility-ordered eviction, per §3.4: "If a node exhausts
// all available storage, packets with the lowest utility are deleted
// first as they contribute least to overall performance. However, a
// source never deletes its own packet unless it receives an
// acknowledgment for the packet."
package buffer

import "rapid/internal/packet"

// Entry is a buffered replica of a packet plus the per-replica state the
// routing protocols need.
type Entry struct {
	P *packet.Packet
	// ReceivedAt is when this node obtained the replica.
	ReceivedAt float64
	// Hops counts transfers from the source to this replica (0 at the
	// source). MaxProp's head-of-queue rule keys on this.
	Hops int
	// Own marks the source's original copy, which is protected from
	// eviction until acknowledged.
	Own bool
	// Tokens is the replication allowance carried by copy-bounded
	// protocols (Spray and Wait [30] and the replica-bounded schemes
	// [24, 29] of Table 1). Zero for protocols that do not bound
	// copies.
	Tokens int

	// pos is the entry's index in its store's order slice while it is
	// buffered.
	pos int
}

// Utility ranks entries for eviction: lower values are evicted first.
// ahead is the bytes buffered ahead of e in its destination queue (the
// b(i) of the paper's Fig. 1). An insert scores every unprotected entry
// once, against the store as it stood before the insert, so a utility
// must be a pure function of its arguments and of state the eviction
// does not touch.
type Utility func(e *Entry, ahead int64) float64

// Store is a single node's packet buffer. The zero value is unusable;
// construct with New. Store is not safe for concurrent use: only
// sessions keyed on its node touch it, and the parallel engine orders
// every event sharing a key (DESIGN.md §12).
type Store struct {
	capacity int64 // bytes; <= 0 means unlimited
	used     int64
	// entries stays a map: a per-node paged packet-ID table for it
	// allocated more than the map it replaced (DESIGN.md §3).
	entries map[packet.ID]*Entry
	// order preserves a deterministic iteration sequence (map order is
	// randomized in Go). It is maintained with swap-removal, so the
	// sequence is deterministic for a given operation history but not
	// sorted; routers impose their own orderings. Each entry records
	// its own index (Entry.pos).
	order []*Entry
	// byDst tracks buffered bytes per destination, so queue-position
	// estimates for a just-created packet (younger than everything
	// buffered) are O(1). Destination IDs are dense per run, so both
	// per-destination structures are slices indexed by NodeID, grown on
	// demand — map hashing on these paths dominated the routing hot loop
	// at constellation populations.
	byDst []int64
	// queues holds, per destination, the buffered entries in delivery
	// order (oldest (Created, ID) first — §4.1's direct-delivery queue),
	// maintained incrementally so routers never re-scan or re-sort the
	// whole buffer to answer per-destination questions.
	queues [][]*Entry
	// scored is makeRoom's reusable scratch of eviction candidates.
	scored []scoredEntry
}

// scoredEntry is one eviction candidate with its utility.
type scoredEntry struct {
	e *Entry
	u float64
}

// New returns an empty store with the given byte capacity
// (capacity <= 0 means unlimited, as with the 40 GB deployment buffers
// that never filled).
func New(capacity int64) *Store {
	return &Store{
		capacity: capacity,
		entries:  make(map[packet.ID]*Entry),
	}
}

// Capacity returns the configured capacity in bytes (<=0: unlimited).
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes currently stored.
func (s *Store) Used() int64 { return s.used }

// Len returns the number of buffered packets.
func (s *Store) Len() int { return len(s.order) }

// Has reports whether the packet is buffered.
func (s *Store) Has(id packet.ID) bool {
	_, ok := s.entries[id]
	return ok
}

// Get returns the entry for id, or nil.
func (s *Store) Get(id packet.ID) *Entry {
	return s.entries[id]
}

// Entries returns the stored entries in the store's deterministic
// internal order. The returned slice is shared — callers must not
// modify it; copy before sorting.
func (s *Store) Entries() []*Entry { return s.order }

// Insert stores e, evicting lowest-utility unprotected entries as needed
// when a utility function is supplied. It reports whether the packet was
// stored. Inserting an already-present packet is a no-op returning true.
// Inserting with insufficient space and util == nil fails.
func (s *Store) Insert(e *Entry, util Utility) bool {
	if e == nil || e.P == nil {
		return false
	}
	if s.Has(e.P.ID) {
		return true
	}
	need := e.P.Size
	if s.capacity > 0 && need > s.capacity {
		return false
	}
	if s.capacity > 0 && s.used+need > s.capacity {
		if util == nil {
			return false
		}
		if !s.makeRoom(need, util) {
			return false
		}
	}
	s.entries[e.P.ID] = e
	e.pos = len(s.order)
	s.order = append(s.order, e)
	s.used += need
	s.ensureDst(e.P.Dst)
	s.byDst[e.P.Dst] += need
	q := s.queues[e.P.Dst]
	i := queuePos(q, e.P.Created, e.P.ID)
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = e
	s.queues[e.P.Dst] = q
	return true
}

// ensureDst grows the dense per-destination arrays to cover dst.
func (s *Store) ensureDst(dst packet.NodeID) {
	for len(s.byDst) <= int(dst) {
		s.byDst = append(s.byDst, 0)
		s.queues = append(s.queues, nil)
	}
}

// queuePos locates the delivery-order position of (created, id) in a
// destination queue by binary search.
func queuePos(q []*Entry, created float64, id packet.ID) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := (lo + hi) / 2
		e := q[mid]
		if e.P.Created < created || (e.P.Created == created && e.P.ID < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// makeRoom evicts unprotected entries in increasing (utility, ID)
// order until `need` bytes fit. One walk of the destination queues
// scores every unprotected entry, with the bytes ahead of it, against
// the pre-insert store. It returns false when protected entries
// prevent reaching the target; the evictions already performed stand
// (eviction is destructive, as in the protocol).
func (s *Store) makeRoom(need int64, util Utility) bool {
	cands := s.scored[:0]
	for _, q := range s.queues {
		var ahead int64
		for _, e := range q {
			if !e.Own {
				cands = append(cands, scoredEntry{e: e, u: util(e, ahead)})
			}
			ahead += e.P.Size
		}
	}
	s.scored = cands
	// Drop the pointers afterwards so evicted entries can be collected.
	defer clear(s.scored)
	for s.used+need > s.capacity {
		if len(cands) == 0 {
			return false
		}
		best, bestU, bestID := 0, cands[0].u, cands[0].e.P.ID
		for i, c := range cands {
			if c.u < bestU || (c.u == bestU && c.e.P.ID < bestID) {
				best, bestU, bestID = i, c.u, c.e.P.ID
			}
		}
		s.Remove(cands[best].e.P.ID)
		last := len(cands) - 1
		cands[best] = cands[last]
		cands = cands[:last]
	}
	return true
}

// Remove deletes the packet, reporting whether it was present.
func (s *Store) Remove(id packet.ID) bool {
	e, ok := s.entries[id]
	if !ok {
		return false
	}
	delete(s.entries, id)
	i := e.pos
	last := len(s.order) - 1
	if i != last {
		moved := s.order[last]
		s.order[i] = moved
		moved.pos = i
	}
	s.order[last] = nil
	s.order = s.order[:last]
	s.used -= e.P.Size
	s.byDst[e.P.Dst] -= e.P.Size
	q := s.queues[e.P.Dst]
	qi := queuePos(q, e.P.Created, e.P.ID)
	copy(q[qi:], q[qi+1:])
	q[len(q)-1] = nil
	s.queues[e.P.Dst] = q[:len(q)-1]
	return true
}

// BytesFor returns the total buffered bytes destined to dst.
func (s *Store) BytesFor(dst packet.NodeID) int64 {
	if dst < 0 || int(dst) >= len(s.byDst) {
		return 0
	}
	return s.byDst[dst]
}

// Queue returns the buffered entries destined to dst in delivery order
// (oldest first). The returned slice is shared live state — callers
// must not modify or retain it across store mutations.
func (s *Store) Queue(dst packet.NodeID) []*Entry {
	if dst < 0 || int(dst) >= len(s.queues) {
		return nil
	}
	return s.queues[dst]
}

// EachQueue calls f once per destination with buffered packets, passing
// the delivery-ordered queue (same sharing rules as Queue). Iteration
// order over destinations is unspecified (currently ascending by ID).
func (s *Store) EachQueue(f func(dst packet.NodeID, q []*Entry)) {
	for dst, q := range s.queues {
		if len(q) > 0 {
			f(packet.NodeID(dst), q)
		}
	}
}
