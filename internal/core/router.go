package core

import (
	"cmp"
	"math"
	"slices"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Router is the RAPID protocol (Protocol rapid, §3.4) bound to one
// node. Construct via New. It keeps no index over its own buffer:
// Inventory, PlanReplication and eviction each walk the store's
// destination queues once, summing b(i) as they go.
type Router struct {
	metric Metric
	node   *routing.Node
	est    *Estimator

	// peerIdx caches the contact peer's queue index between
	// PlanReplication and the per-send EstimateReplicaDelay calls of
	// the same session (rebuilding it per send would reintroduce the
	// O(|buffer|²) cost the index exists to avoid). It is keyed on the
	// peer's store *version*, not the clock: two distinct contacts
	// between the same pair at the same timestamp (duplicate trace
	// rows, zero-period contact-plan entries) must not reuse the first
	// contact's snapshot of the peer's buffer.
	peerIdx    *QueueIndex
	peerIdxID  packet.NodeID
	peerIdxVer uint64

	// Scratch buffers reused across contacts. The runtime consumes each
	// returned slice before the node's next contact, so per-contact
	// allocation of these (which dominated the allocation profile) is
	// pooled away. They are per-router, never shared between nodes.
	invScratch  []control.InventoryItem
	dqScratch   []*buffer.Entry
	candScratch []repCand
	planScratch []*buffer.Entry
}

// repCand is one replication candidate during plan ranking.
type repCand struct {
	e    *buffer.Entry
	key  float64
	tail bool // no measurable marginal gain; fills leftover budget
}

// New returns a factory producing RAPID routers optimizing the given
// metric.
func New(metric Metric) routing.RouterFactory {
	return func(packet.NodeID) routing.Router {
		return &Router{metric: metric}
	}
}

// Name implements routing.Router.
func (r *Router) Name() string { return "rapid/" + r.metric.String() }

// SessionConfined implements routing.SessionConfined: the scratch
// slices, queue indexes and version counters are all per-node, and the
// only run-wide state touched is the immutable config and horizon.
func (r *Router) SessionConfined() {}

// Metric returns the routing objective this router optimizes.
func (r *Router) Metric() Metric { return r.metric }

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) {
	r.node = n
	r.est = NewEstimator(n)
}

// Generate implements routing.Router: store the new packet as the
// protected source copy and, on the global channel, announce the
// replica to the shared snapshot. In-band, nothing reads a node's
// record of its own copy (its inventories carry that estimate), so
// none is written. The fresh packet is younger than everything
// buffered, so its queue position is the per-destination byte total —
// no index build needed (packet generation is the highest-frequency
// event in the simulator).
func (r *Router) Generate(p *packet.Packet, now float64) {
	// Compute the position before inserting so the packet's own bytes
	// are not counted ahead of itself.
	ahead := r.node.Store.BytesFor(p.Dst)
	e := &buffer.Entry{P: p, ReceivedAt: now, Own: true}
	if !r.node.Store.Insert(e, r.bufferUtility(now)) {
		return // a packet larger than total storage cannot be routed
	}
	if !r.node.Ctl.Global() {
		return
	}
	delay := math.Inf(1)
	if em := r.node.Ctl.Meet.Expected(r.node.ID, p.Dst); !math.IsInf(em, 1) {
		b := r.node.Ctl.AvgTransferBytes(r.node.Net.Cfg.DefaultTransferBytes)
		delay = em * meetingsNeeded(ahead, p.Size, b)
	}
	r.node.Ctl.NoteReplica(control.InventoryItem{
		ID: p.ID, Dst: p.Dst, Size: p.Size,
		Created: p.Created, Deadline: p.Deadline,
		Delay: delay,
	}, r.node.ID, now)
}

// Inventory implements routing.Router: announce every buffered packet
// with a fresh local delivery estimate ("For each of its own packets,
// the updated delivery delay estimate based on current buffer state",
// §4.2). Items come in destination-queue order, each priced with the
// running byte sum of its queue.
func (r *Router) Inventory(now float64) []control.InventoryItem {
	out := r.invScratch[:0]
	r.node.Store.EachQueue(func(_ packet.NodeID, q []*buffer.Entry) {
		var ahead int64
		for _, e := range q {
			out = append(out, control.InventoryItem{
				ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
				Created: e.P.Created, Deadline: e.P.Deadline,
				Delay: r.est.SelfDelay(e.P, ahead),
				Hops:  e.Hops,
			})
			ahead += e.P.Size
		}
	})
	r.invScratch = out
	return out
}

// DirectQueue implements routing.Router (Protocol rapid Step 2):
// packets destined to the peer in decreasing utility order — oldest
// first for the delay metrics, earliest remaining deadline first for
// the deadline metric.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	// The store's per-destination queue is already in (Created, ID)
	// delivery order; copy it so the session can remove entries while
	// iterating.
	out := append(r.dqScratch[:0], r.node.Store.Queue(peer)...)
	r.dqScratch = out
	if r.metric == Deadline {
		slices.SortFunc(out, func(ei, ej *buffer.Entry) int {
			ri, iOK := remaining(ei.P, now)
			rj, jOK := remaining(ej.P, now)
			if iOK != jOK {
				if iOK {
					return -1 // live-deadline packets before expired/none
				}
				return 1
			}
			if iOK {
				if c := cmp.Compare(ri, rj); c != 0 {
					return c // most urgent first
				}
			}
			if c := cmp.Compare(ei.P.Created, ej.P.Created); c != 0 {
				return c // oldest first, ID ties
			}
			return cmp.Compare(ei.P.ID, ej.P.ID)
		})
	}
	return out
}

func remaining(p *packet.Packet, now float64) (float64, bool) {
	if p.Deadline == 0 {
		return 0, false
	}
	rem := p.Deadline - now
	return rem, rem > 0
}

// PlanReplication implements routing.Router (Protocol rapid Step 3):
// rank buffered packets by marginal utility per byte of replicating
// them to the peer. Candidates whose replication measurably helps the
// metric (δU > 0) come first, in decreasing δU/s — the *intentional*
// part. Candidates with no measurable gain follow as a work-conserving
// tail (oldest first): bandwidth left over at a transfer opportunity is
// a sunk resource, an extra replica can only help under the model, and
// the estimates driving δU are themselves stale and conservative
// ("this inaccurate information is sufficient", §4.2).
//
// For the max-delay metric the utility is non-zero only for the packet
// with the maximum expected delay; once it is replicated the utility of
// the remaining packets is recalculated (§3.5.3's work-conserving
// rule). Because a replicated packet is immediately skipped by the
// session thereafter, the recalculated order is exactly decreasing
// D(i) — which is how it is produced here.
//
// One walk of the destination queues prices every candidate: b(i) at
// this node is the queue's running byte sum, and the hypothetical b(i)
// at the peer comes from a cursor over the peer's queue for the same
// destination. The walk order is immaterial, because the candidates are
// then sorted by a strict total order (every key tie falls to the
// packet ID).
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	peerIdx := r.peerIndex(peer)
	cap := delayCap(r.node.Net.Horizon)
	cands := r.candScratch[:0]
	r.node.Store.EachQueue(func(dst packet.NodeID, q []*buffer.Entry) {
		if dst == peer.ID {
			return // direct delivery, not replication
		}
		peerQ := queueCursor{ents: peerIdx.queue(dst)}
		var ahead int64
		for _, e := range q {
			cands = append(cands, r.candidate(peer, e, ahead, peerQ.hypoBytesAhead(e.P), now, cap))
			ahead += e.P.Size
		}
	})
	r.candScratch = cands
	slices.SortFunc(cands, planOrder)
	out := r.planScratch[:0]
	for _, c := range cands {
		out = append(out, c.e)
	}
	r.planScratch = out
	return out
}

// candidate prices replicating e to peer, with b(i) = ahead bytes
// queued before e here and peerAhead at the peer.
func (r *Router) candidate(peer *routing.Node, e *buffer.Entry, ahead, peerAhead int64, now, cap float64) repCand {
	dY := r.est.PeerDelay(peer, peerAhead, e.P)
	var key float64
	switch r.metric {
	case MaxDelay:
		// Work-conserving order: decreasing expected delay among
		// packets the peer could actually deliver.
		if !math.IsInf(dY, 1) {
			key = capDelay(r.est.ExpectedDelay(e.P, ahead, now), cap)
		}
	case Deadline:
		rate, delivered := r.est.RateSum(e.P, ahead)
		key = marginalDeadline(rate, delivered, dY, e.P, now) / float64(e.P.Size)
	default: // AvgDelay
		rate, delivered := r.est.RateSum(e.P, ahead)
		key = marginalAvgDelay(rate, delivered, dY, cap) / float64(e.P.Size)
	}
	return repCand{e: e, key: key, tail: key <= 0}
}

// planOrder ranks replication candidates: intentional ones first in
// decreasing δU/s, then the tail oldest first. It is a strict total
// order (two NaN keys compare equal and fall to the ID tie-break like
// any other tie), so the plan does not depend on the candidates' input
// order.
func planOrder(ci, cj repCand) int {
	if ci.tail != cj.tail {
		if !ci.tail {
			return -1 // intentional candidates first
		}
		return 1
	}
	if !ci.tail {
		if c := cmp.Compare(cj.key, ci.key); c != 0 {
			return c // decreasing δU/s
		}
	} else if c := cmp.Compare(ci.e.P.Created, cj.e.P.Created); c != 0 {
		return c // tail: oldest first (they have waited longest)
	}
	return cmp.Compare(ci.e.P.ID, cj.e.P.ID)
}

// Accept implements routing.Router: store the replica under the
// metric's eviction policy (§3.4's lowest-utility-first deletion).
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, r.bufferUtility(now))
}

// EstimateReplicaDelay implements routing.ReplicaDelayEstimator: the
// hypothesized direct-delivery delay of the copy just pushed to holder.
// It deliberately reads the snapshot taken at planning time (the peer's
// just-announced state) rather than a live view: the per-send Accepts
// of the running session bump the peer's store version, and re-indexing
// after each one would both change the announced estimates and
// reintroduce the O(|buffer|²) rebuild cost.
func (r *Router) EstimateReplicaDelay(e *buffer.Entry, holder *routing.Node, now float64) float64 {
	return r.est.PeerDelay(holder, r.peerSnapshot(holder).HypoBytesAhead(e.P), e.P)
}

// SnapshotReplicaDelays implements routing.ReplicaDelaySnapshotter:
// the returned closure pins the holder's planning-time queue index, so
// a windowed session's per-send estimates survive interleaved contacts
// at this node (which re-point the single-slot peerIdx cache at other
// peers mid-window) without rebuilding the index per send.
func (r *Router) SnapshotReplicaDelays(holder *routing.Node) routing.ReplicaDelayFunc {
	idx := r.peerIndex(holder)
	return func(e *buffer.Entry) float64 {
		return r.est.PeerDelay(holder, idx.HypoBytesAhead(e.P), e.P)
	}
}

// peerIndex returns a fresh queue index over the peer's buffer as it
// stands right now. It is never refilled in place:
// SnapshotReplicaDelays pins it across a window. The cached build is
// reused only while the peer's store is unchanged (the index is a pure
// function of the store, so version equality makes reuse exact). Called
// at planning time, it guarantees a second same-timestamp contact with
// the same peer sees the peer's post-first-contact buffer, never a
// stale snapshot.
func (r *Router) peerIndex(peer *routing.Node) *QueueIndex {
	if v := peer.Store.Version(); r.peerIdx == nil || r.peerIdxID != peer.ID || r.peerIdxVer != v {
		r.peerIdx = NewQueueIndex(peer.Store)
		r.peerIdxID = peer.ID
		r.peerIdxVer = v
	}
	return r.peerIdx
}

// peerSnapshot returns the planning-time index for the peer without
// freshness checks (see EstimateReplicaDelay). Falls back to a fresh
// build if the cache belongs to a different peer.
func (r *Router) peerSnapshot(peer *routing.Node) *QueueIndex {
	if r.peerIdx == nil || r.peerIdxID != peer.ID {
		return r.peerIndex(peer)
	}
	return r.peerIdx
}

// bufferUtility returns the eviction ranking for the current metric.
// The store scores each unprotected entry once per insert, passing its
// bytes ahead in the pre-insert queue, so no queue index is read.
func (r *Router) bufferUtility(now float64) buffer.Utility {
	cap := delayCap(r.node.Net.Horizon)
	return func(e *buffer.Entry, ahead int64) float64 {
		return evictionUtility(r.metric, r.est, ahead, e, now, cap)
	}
}
