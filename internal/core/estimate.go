// Package core implements RAPID — the paper's primary contribution: a
// utility-driven DTN routing protocol that translates an
// administrator-specified routing metric (average delay, missed
// deadlines, or maximum delay) into per-packet utilities, and
// replicates packets in decreasing order of marginal utility per byte
// (§3), estimating delivery delays with the Estimate-Delay algorithm
// over control-plane metadata (§4).
package core

import (
	"math"

	"rapid/internal/buffer"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// QueueIndex precomputes, for one node's buffer, each packet's position
// in its per-destination delivery queue: b(i), the total size of
// packets that precede i (Fig. 1 of the paper). Queues are ordered
// oldest-first — "sorted in decreasing order of T(i) or time since
// creation — the order in which they would be delivered directly"
// (§4.1). RAPID's slice plan (PlanReplication) builds one over the
// contact peer's buffer at planning time: it is the snapshot that
// prices hypothetical replicas at the peer for the rest of the session
// (EstimateReplicaDelay) or window (SnapshotReplicaDelays). Pricing
// the plan itself needs no index: one walk of the node's destination
// queues reads b(i) off running byte sums, here and at the peer
// (queueCursor).
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
// RAPID reads its own b(i) off its queue walks; tests use this lookup
// as their from-scratch reference.
func (q *QueueIndex) BytesAhead(p *packet.Packet) int64 {
	if ents, i := q.position(p); i < len(ents) && ents[i].id == p.ID {
		return ents[i].cum
	}
	return 0
}

// HypoBytesAhead computes b(i) as if p were inserted into the indexed
// buffer: the bytes of already-buffered packets to the same destination
// that are older than p. Used when hypothesizing a replica at the
// contact peer (the peer's queue as just announced).
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

// queueCursor answers HypoBytesAhead against one destination queue of
// a live store, for packets offered in delivery order: it only moves
// forward, summing the bytes of the entries it passes, so a whole queue
// costs one pass over the peer's queue and no index.
type queueCursor struct {
	q     []*buffer.Entry
	i     int
	ahead int64
}

// bytesAhead returns the bytes queued before p: the sizes of the
// entries that precede it in delivery order, not counting p itself if
// the store holds it. p must not precede the packet of the previous
// call in delivery order.
func (c *queueCursor) bytesAhead(p *packet.Packet) int64 {
	for c.i < len(c.q) {
		q := c.q[c.i].P
		if q.Created > p.Created || (q.Created == p.Created && q.ID >= p.ID) {
			break
		}
		c.ahead += q.Size
		c.i++
	}
	return c.ahead
}

// Estimator implements Estimate-Delay (§4.1) from one node's local
// view: its own buffer, its control state (replica metadata, average
// transfer sizes), and its meeting-time matrix. Estimates are computed
// on demand: each is a memoized meeting-matrix read and a walk over the
// packet's replicas. The caller supplies queue positions as bytes
// ahead: b(i) in the node's own queue, from a walk of the store's
// destination queues, and the hypothetical b(i) at a peer, from a
// cursor over the peer's queue or the peer's QueueIndex.
type Estimator struct {
	node *routing.Node
}

// NewEstimator returns an estimator bound to a node.
func NewEstimator(n *routing.Node) *Estimator {
	return &Estimator{node: n}
}

// meetingsNeeded returns n_j(i), the number of meetings with the
// destination needed to drain the queue ahead of i and send i itself.
//
// The paper states n_j(i) = ⌈b_j(i)/B_j⌉, which is 0 for the
// head-of-queue packet and would make Eq. 8's λ/n division by zero; we
// use ⌈(b_j(i)+s_i)/B_j⌉ clamped to at least 1, which agrees with the
// paper for all non-head positions when sizes divide evenly and fixes
// the degenerate case (see DESIGN.md §7).
func meetingsNeeded(bytesAhead, size int64, avgTransfer float64) float64 {
	if avgTransfer <= 0 {
		return 1
	}
	n := math.Ceil(float64(bytesAhead+size) / avgTransfer)
	if n < 1 {
		n = 1
	}
	return n
}

// dstTerms are the constants of a direct-delivery estimate at one
// holder for one destination: E(M) from the holder to the destination
// and the holder's average transfer size B. Both are fixed within one
// walk of a destination queue, so the walks read them once per queue.
type dstTerms struct {
	em, b float64
}

// delay returns E(M) · n(i) for a packet of size bytes with ahead bytes
// queued before it, or +Inf when the destination is unreachable within
// the h-hop matrix.
func (t dstTerms) delay(ahead, size int64) float64 {
	if math.IsInf(t.em, 1) {
		return math.Inf(1)
	}
	return t.em * meetingsNeeded(ahead, size, t.b)
}

// selfTerms returns the node's own terms for destination dst.
func (est *Estimator) selfTerms(dst packet.NodeID) dstTerms {
	return dstTerms{
		em: est.node.Ctl.Meet.Expected(est.node.ID, dst),
		b:  est.node.Ctl.AvgTransferBytes(est.node.Net.Cfg.DefaultTransferBytes),
	}
}

// peerTerms returns peer's terms for destination dst as this node sees
// them: the local matrix's E(M_YZ) and the peer's announced average.
func (est *Estimator) peerTerms(peer *routing.Node, dst packet.NodeID) dstTerms {
	return dstTerms{
		em: est.node.Ctl.Meet.Expected(peer.ID, dst),
		b:  est.node.Ctl.AvgTransferOf(peer.ID, est.node.Net.Cfg.DefaultTransferBytes),
	}
}

// SelfDelay estimates the node's own direct-delivery time for packet p
// with `ahead` bytes queued before it: E(M_XZ) · n_X(i) (the Eq. 9
// terms). Returns +Inf when the destination is unreachable within the
// h-hop matrix.
func (est *Estimator) SelfDelay(p *packet.Packet, ahead int64) float64 {
	return est.selfTerms(p.Dst).delay(ahead, p.Size)
}

// PeerDelay hypothesizes the direct-delivery time of a replica of p
// placed at peer right now, with `ahead` bytes queued before it in the
// peer's just-announced buffer (its HypoBytesAhead), and the local
// matrix's estimate of E(M_YZ).
func (est *Estimator) PeerDelay(peer *routing.Node, ahead int64, p *packet.Packet) float64 {
	return est.peerTerms(peer, p.Dst).delay(ahead, p.Size)
}

// KnownDelays gathers the per-replica expected direct-delivery delays
// for packet p: the node's own fresh estimate plus the control plane's
// estimates for remote replicas (stale by design — "the propagated
// information may be stale", §4.2).
func (est *Estimator) KnownDelays(p *packet.Packet, ahead int64) []float64 {
	delays := []float64{est.SelfDelay(p, ahead)}
	for _, rep := range est.node.Ctl.Replicas(p.ID) {
		if rep.Holder == est.node.ID {
			// Fresh local estimate already included (only the global
			// channel's shared snapshot lists the node itself).
			continue
		}
		if rep.Holder == p.Dst {
			continue // a replica at the destination is a delivery; ack pending
		}
		delays = append(delays, rep.Delay)
	}
	return delays
}

// RateSum returns Σ_j 1/d_j over p's replica delay estimates — the
// combined exponential delivery rate of Eq. 7/8 — without allocating.
// delivered reports a zero-delay replica (packet effectively at its
// destination). This is the hot-path form of KnownDelays: it is
// evaluated once per buffered packet per contact.
func (est *Estimator) RateSum(p *packet.Packet, ahead int64) (rate float64, delivered bool) {
	return est.rateSum(p, est.SelfDelay(p, ahead))
}

// rateSum is RateSum given the node's own delay estimate d for p.
func (est *Estimator) rateSum(p *packet.Packet, d float64) (rate float64, delivered bool) {
	if d == 0 {
		return 0, true
	}
	if d > 0 && !math.IsInf(d, 1) {
		rate += 1 / d
	}
	for _, rep := range est.node.Ctl.Replicas(p.ID) {
		if rep.Holder == est.node.ID || rep.Holder == p.Dst {
			continue
		}
		if rep.Delay == 0 {
			return 0, true
		}
		if rep.Delay > 0 && !math.IsInf(rep.Delay, 1) {
			rate += 1 / rep.Delay
		}
	}
	return rate, false
}

// RemainingDelay returns A(i) = E[a(i)], the expected remaining time to
// deliver p by any replica (Eq. 6/8).
func (est *Estimator) RemainingDelay(p *packet.Packet, ahead int64) float64 {
	return remainingDelay(est.RateSum(p, ahead))
}

// remainingDelay is A(i) for a combined delivery rate.
func remainingDelay(rate float64, delivered bool) float64 {
	if delivered {
		return 0
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return 1 / rate
}

// ExpectedDelay returns D(i) = T(i) + A(i) (Table 2).
func (est *Estimator) ExpectedDelay(p *packet.Packet, ahead int64, now float64) float64 {
	return p.Age(now) + est.RemainingDelay(p, ahead)
}
