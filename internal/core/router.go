package core

import (
	"cmp"
	"math"
	"slices"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/minheap"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Router is the RAPID protocol (Protocol rapid, §3.4) bound to one
// node. Construct via New. It keeps no index over its own buffer:
// Inventory, the replication plans and eviction each walk the store's
// destination queues once, summing b(i) as they go.
type Router struct {
	metric Metric
	node   *routing.Node
	est    *Estimator

	// Scratch reused across contacts. The runtime consumes each
	// returned slice or plan before the node's next contact, so
	// per-contact allocation of these (which dominated the allocation
	// profile) is pooled away. They are per-router, never shared
	// between nodes. sliced and pulled keep their candidates in
	// candScratch.
	invScratch  []control.InventoryItem
	dqScratch   []*buffer.Entry
	candScratch []repCand
	planScratch []*buffer.Entry
	sliced      slicePlan
	pulled      pulledPlan
}

// repCand is one replication candidate during plan ranking.
type repCand struct {
	e    *buffer.Entry
	key  float64
	tail bool // no measurable marginal gain; fills leftover budget
	// peerAhead is the candidate's b(i) at the peer at planning time,
	// which prices the replica's delivery delay if it is sent.
	peerAhead int64
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
// slices and plans are all per-node, and the only run-wide state
// touched is the immutable config and horizon.
func (r *Router) SessionConfined() {}

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) {
	r.node = n
	r.est = NewEstimator(n)
}

// Generate implements routing.Router: store the new packet as the
// protected source copy and, on the global channel, announce the
// replica to the hub. In-band, nothing reads a node's record of its
// own copy (its inventories carry that estimate), so none is written.
// The fresh packet is younger than everything buffered, so its queue
// position is the per-destination byte total — no index build needed
// (packet generation is the highest-frequency event in the simulator).
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
	if em := r.node.Ctl.Expected(r.node.ID, p.Dst); !math.IsInf(em, 1) {
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
	r.node.Store.EachQueue(func(dst packet.NodeID, q []*buffer.Entry) {
		self := r.est.selfTerms(dst)
		var ahead int64
		for _, e := range q {
			out = append(out, control.InventoryItem{
				ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
				Created: e.P.Created, Deadline: e.P.Deadline,
				Delay: self.delay(ahead, e.P.Size),
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
// The slice is the whole plan, sorted. The router keeps its priced
// candidates, which EstimateReplicaDelay and SnapshotReplicaDelays
// read. A point session pulls the same order from PullReplication
// instead.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	cands, _ := r.candidates(peer, now)
	slices.SortFunc(cands, planOrder)
	out := r.planScratch[:0]
	for _, c := range cands {
		out = append(out, c.e)
	}
	r.planScratch = out
	r.sliced = slicePlan{est: r.est, peer: peer, cands: cands}
	return out
}

// PullReplication implements routing.PlanPuller: PlanReplication's
// order, heapified in O(n) and popped while the session's budget lasts,
// so a contact that carries k of n candidates costs O(n + k log n)
// instead of a full sort. planOrder is a strict total order, so the
// pops are exactly the sorted plan's prefix. Each candidate carries
// its planning-time bytes ahead at the peer, as in the slice plan.
func (r *Router) PullReplication(peer *routing.Node, now float64) routing.ReplicationPlan {
	p := &r.pulled
	p.est, p.peer = r.est, peer
	p.heap.Items, p.minSize = r.candidates(peer, now)
	p.heap.Less = candLess
	p.heap.Init()
	p.last = repCand{}
	return p
}

// candidates prices every replication candidate for peer in one walk
// of the destination queues, in walk order, and returns them with the
// smallest candidate size. b(i) at this node is the queue's running
// byte sum, and the hypothetical b(i) at the peer comes from a cursor
// over the peer's live queue for the same destination. The walk order
// is immaterial: the plans order candidates by planOrder, a strict
// total order (every key tie falls to the packet ID). The walk reuses
// candScratch, so it ends the last slice plan.
func (r *Router) candidates(peer *routing.Node, now float64) ([]repCand, int64) {
	r.sliced = slicePlan{}
	cap := delayCap(r.node.Net.Horizon)
	cands := r.candScratch[:0]
	minSize := int64(math.MaxInt64)
	r.node.Store.EachQueue(func(dst packet.NodeID, q []*buffer.Entry) {
		if dst == peer.ID {
			return // direct delivery, not replication
		}
		terms := queueTerms{est: r.est, dst: dst, peer: r.est.peerTerms(peer, dst)}
		peerQ := queueCursor{q: peer.Store.Queue(dst)}
		var ahead int64
		for _, e := range q {
			cands = append(cands, r.candidate(e, &terms, ahead, peerQ.bytesAhead(e.P), now, cap))
			ahead += e.P.Size
			minSize = min(minSize, e.P.Size)
		}
	})
	r.candScratch = cands
	return cands, minSize
}

// queueTerms holds one destination queue's estimate terms during the
// candidate walk. The node's own are read on first use: the max-delay
// key skips them for a packet the peer cannot deliver, and reading them
// anyway could run a shortest-path search (counted in Collector.Meet)
// that the per-packet estimate never ran.
type queueTerms struct {
	est    *Estimator
	dst    packet.NodeID
	peer   dstTerms
	self   dstTerms
	selfOK bool
}

// selfDelay returns the node's own delay estimate for a packet of size
// bytes with ahead bytes queued before it.
func (t *queueTerms) selfDelay(ahead, size int64) float64 {
	if !t.selfOK {
		t.self, t.selfOK = t.est.selfTerms(t.dst), true
	}
	return t.self.delay(ahead, size)
}

// candidate prices replicating e to the peer, with b(i) = ahead bytes
// queued before e here and peerAhead at the peer.
func (r *Router) candidate(e *buffer.Entry, terms *queueTerms, ahead, peerAhead int64, now, cap float64) repCand {
	dY := terms.peer.delay(peerAhead, e.P.Size)
	var key float64
	switch r.metric {
	case MaxDelay:
		// Work-conserving order: decreasing expected delay among
		// packets the peer could actually deliver.
		if !math.IsInf(dY, 1) {
			rem := remainingDelay(r.est.rateSum(e.P, terms.selfDelay(ahead, e.P.Size)))
			key = capDelay(e.P.Age(now)+rem, cap)
		}
	case Deadline:
		rate, delivered := r.est.rateSum(e.P, terms.selfDelay(ahead, e.P.Size))
		key = marginalDeadline(rate, delivered, dY, e.P, now) / float64(e.P.Size)
	default: // AvgDelay
		rate, delivered := r.est.rateSum(e.P, terms.selfDelay(ahead, e.P.Size))
		key = marginalAvgDelay(rate, delivered, dY, cap) / float64(e.P.Size)
	}
	return repCand{e: e, key: key, tail: key <= 0, peerAhead: peerAhead}
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

// candLess is planOrder as the pulled plan's heap order.
func candLess(a, b repCand) bool { return planOrder(a, b) < 0 }

// pulledPlan is the plan PullReplication hands out: the priced
// candidates in a heap under planOrder.
type pulledPlan struct {
	est  *Estimator
	peer *routing.Node
	heap minheap.Heap[repCand]
	// minSize is the smallest candidate's size: a budget below it fits
	// nothing, so Next stops without popping the rest.
	minSize int64
	// last is the candidate Next returned last, whose replica
	// ReplicaDelay prices.
	last repCand
}

// Next implements routing.ReplicationPlan.
func (p *pulledPlan) Next(budget int64) *buffer.Entry {
	if budget < p.minSize {
		return nil
	}
	for p.heap.Len() > 0 {
		if c := p.heap.Pop(); c.e.P.Size <= budget {
			p.last = c
			return c.e
		}
	}
	return nil
}

// ReplicaDelay implements routing.ReplicationPlan: PeerDelay at the
// candidate's planning-time bytes ahead, as the slice plan prices it.
func (p *pulledPlan) ReplicaDelay(e *buffer.Entry) float64 {
	if e != p.last.e {
		panic("core: ReplicaDelay of a candidate the plan did not return last")
	}
	return p.est.PeerDelay(p.peer, p.last.peerAhead, e.P)
}

// Accept implements routing.Router: store the replica under the
// metric's eviction policy (§3.4's lowest-utility-first deletion).
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, r.bufferUtility(now))
}

// slicePlan is the plan PlanReplication returned last: its priced
// candidates in plan order and the peer it was built for.
type slicePlan struct {
	est   *Estimator
	peer  *routing.Node
	cands []repCand
	// at is where the next lookup starts: sessions price the replicas
	// they send in plan order, so lookups only move forward.
	at int
}

// replicaDelay prices the replica of candidate e at the plan's peer:
// PeerDelay at the bytes ahead e carries from planning time.
func (p *slicePlan) replicaDelay(e *buffer.Entry) float64 {
	for ; p.at < len(p.cands); p.at++ {
		if c := p.cands[p.at]; c.e == e {
			return p.est.PeerDelay(p.peer, c.peerAhead, e.P)
		}
	}
	panic("core: replica delay of an entry the plan does not hold at or after the last one priced")
}

// EstimateReplicaDelay implements routing.ReplicaDelayEstimator: the
// hypothesized direct-delivery delay of the copy of e just pushed to
// holder, priced from the last plan, which must be PlanReplication's
// for holder. It deliberately prices against the peer's buffer as it
// stood at planning time (the peer's just-announced state), not
// against a live view that the session's own Accepts keep changing.
func (r *Router) EstimateReplicaDelay(e *buffer.Entry, holder *routing.Node, now float64) float64 {
	if holder != r.sliced.peer {
		panic("core: EstimateReplicaDelay for a peer the last plan was not built for")
	}
	return r.sliced.replicaDelay(e)
}

// SnapshotReplicaDelays implements routing.ReplicaDelaySnapshotter:
// the returned closure prices from its own copy of the last plan,
// which must be PlanReplication's for holder, so a windowed session's
// per-send estimates survive interleaved contacts at this node that
// plan for other peers mid-window.
func (r *Router) SnapshotReplicaDelays(holder *routing.Node) routing.ReplicaDelayFunc {
	if holder != r.sliced.peer {
		panic("core: SnapshotReplicaDelays for a peer the last plan was not built for")
	}
	p := r.sliced
	p.cands = slices.Clone(p.cands)
	return p.replicaDelay
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
