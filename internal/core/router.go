package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Router is the RAPID protocol (Protocol rapid, §3.4) bound to one
// node. Construct via New.
type Router struct {
	metric Metric
	node   *routing.Node
	est    *Estimator

	// ownIdx is the queue index over the node's own buffer as of store
	// version ownIdxVer. It is refilled in place, reusing its slices,
	// when Inventory or PlanReplication finds the store has moved, so
	// one contact shares a single build. Eviction does not use it: the
	// store hands each scored entry its bytes ahead.
	ownIdx    QueueIndex
	ownIdxVer uint64

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
	r.ownIdx.fill(n.Store)
	r.ownIdxVer = n.Store.Version()
}

// Generate implements routing.Router: store the new packet as the
// protected source copy and announce the replica to the control plane.
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
// §4.2).
func (r *Router) Inventory(now float64) []control.InventoryItem {
	idx := r.ownIndex()
	out := r.invScratch[:0]
	for _, e := range r.node.Store.Entries() {
		out = append(out, control.InventoryItem{
			ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
			Created: e.P.Created, Deadline: e.P.Deadline,
			Delay: r.est.SelfDelay(e.P, idx.BytesAhead(e.P)),
			Hops:  e.Hops,
		})
	}
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
		sort.Slice(out, func(i, j int) bool {
			ei, ej := out[i], out[j]
			ri, iOK := remaining(ei.P, now)
			rj, jOK := remaining(ej.P, now)
			if iOK != jOK {
				return iOK // live-deadline packets before expired/none
			}
			if iOK && ri != rj {
				return ri < rj // most urgent first
			}
			return olderFirst(ei, ej)
		})
		return out
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

func olderFirst(a, b *buffer.Entry) bool {
	if a.P.Created != b.P.Created {
		return a.P.Created < b.P.Created
	}
	return a.P.ID < b.P.ID
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
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	idx := r.ownIndex()
	peerIdx := r.peerIndex(peer)
	cap := delayCap(r.node.Net.Horizon)
	cands := r.candScratch[:0]
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst == peer.ID {
			continue
		}
		dY := r.est.PeerDelay(peer, peerIdx, e.P)
		var key float64
		switch r.metric {
		case MaxDelay:
			// Work-conserving order: decreasing expected delay among
			// packets the peer could actually deliver.
			if !math.IsInf(dY, 1) {
				key = capDelay(r.est.ExpectedDelay(e.P, idx.BytesAhead(e.P), now), cap)
			}
		case Deadline:
			rate, delivered := r.est.RateSum(e.P, idx.BytesAhead(e.P))
			key = marginalDeadline(rate, delivered, dY, e.P, now) / float64(e.P.Size)
		default: // AvgDelay
			rate, delivered := r.est.RateSum(e.P, idx.BytesAhead(e.P))
			key = marginalAvgDelay(rate, delivered, dY, cap) / float64(e.P.Size)
		}
		cands = append(cands, repCand{e: e, key: key, tail: key <= 0})
	}
	r.candScratch = cands
	slices.SortFunc(cands, func(ci, cj repCand) int {
		if ci.tail != cj.tail {
			if !ci.tail {
				return -1 // intentional candidates first
			}
			return 1
		}
		if !ci.tail && ci.key != cj.key {
			return cmp.Compare(cj.key, ci.key) // decreasing δU/s
		}
		if ci.tail && ci.e.P.Created != cj.e.P.Created {
			// Tail: oldest first (they have waited longest), ID ties.
			return cmp.Compare(ci.e.P.Created, cj.e.P.Created)
		}
		return cmp.Compare(ci.e.P.ID, cj.e.P.ID)
	})
	out := r.planScratch[:0]
	for _, c := range cands {
		out = append(out, c.e)
	}
	r.planScratch = out
	return out
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
	return r.est.PeerDelay(holder, r.peerSnapshot(holder), e.P)
}

// SnapshotReplicaDelays implements routing.ReplicaDelaySnapshotter:
// the returned closure pins the holder's planning-time queue index, so
// a windowed session's per-send estimates survive interleaved contacts
// at this node (which re-point the single-slot peerIdx cache at other
// peers mid-window) without rebuilding the index per send.
func (r *Router) SnapshotReplicaDelays(holder *routing.Node) routing.ReplicaDelayFunc {
	idx := r.peerIndex(holder)
	return func(e *buffer.Entry) float64 {
		return r.est.PeerDelay(holder, idx, e.P)
	}
}

// ownIndex returns the queue index over the node's own buffer,
// refilled only when the store has changed since the last fill.
func (r *Router) ownIndex() *QueueIndex {
	if v := r.node.Store.Version(); r.ownIdxVer != v {
		r.ownIdx.fill(r.node.Store)
		r.ownIdxVer = v
	}
	return &r.ownIdx
}

// peerIndex returns a fresh queue index over the peer's buffer as it
// stands right now. Unlike the own index it is never refilled in place:
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
