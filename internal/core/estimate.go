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

// queueCursor computes b(i) for hypothetical placements in one
// destination queue of a live store: the bytes of the buffered packets
// older than p, as if p were inserted (§4.1's queue, ordered oldest
// first — "the order in which they would be delivered directly"). It
// takes packets in delivery order and only moves forward, summing the
// bytes of the entries it passes, so a whole queue costs one pass.
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
// cursor over the peer's queue.
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
		em: est.node.Ctl.Expected(est.node.ID, dst),
		b:  est.node.Ctl.AvgTransferBytes(est.node.Net.Cfg.DefaultTransferBytes),
	}
}

// peerTerms returns peer's terms for destination dst as this node sees
// them: the local matrix's E(M_YZ) and the peer's announced average.
func (est *Estimator) peerTerms(peer *routing.Node, dst packet.NodeID) dstTerms {
	return dstTerms{
		em: est.node.Ctl.Expected(peer.ID, dst),
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
// peer's just-announced buffer, and the local matrix's estimate of
// E(M_YZ).
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
			// channel's hub lists the node itself).
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
