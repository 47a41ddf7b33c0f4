package routing

import (
	"math"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/metrics"
)

// Session executes one transfer opportunity between two nodes,
// implementing the outer loop of Protocol rapid (§3.4) in a
// protocol-agnostic way:
//
//  1. control: metadata exchange (byte-accounted, possibly capped),
//     purge of packets now known to be delivered, and router gossip
//  2. direct delivery, X→Y then Y→X
//  3. replication, both directions interleaved round-robin in each
//     side's decreasing marginal-utility order
//
// and stops when the byte budget is exhausted or every queue runs out
// of candidates. A point meeting and a contact window (window.go) run
// the same control phase, the same selection (next) and the same
// commit; they differ only in when the queues are read — a point
// session reads each at the step that uses it, pulling a plan from a
// PlanPuller instead of reading its slice, while a window snapshots
// all four slices when it opens — and in when a selected transfer
// commits: at once, or at its completion event.
//
// The byte budget is shared between directions and between control and
// data, matching the merged connection events of the deployment (§5).
type Session struct {
	net      *Network
	x, y     *Node
	budget   int64
	capacity int64
	now      float64
	// stats receives the session's channel accounting. A point session
	// points it at owned and folds into the collector at finish, which
	// is what lets the parallel engine run the session body
	// concurrently and apply counters in exact serial commit order.
	// A windowed session outlives its opening event and is always
	// driven serially, so it points stats at the collector directly.
	stats *metrics.Delta
	owned metrics.Delta
}

// RunSession processes a meeting between nodes a and b with the given
// transfer-opportunity size. A meeting with a churned-down endpoint
// never happens: the dark radio neither forwards nor receives, so no
// bytes move, nothing is observed, and no opportunity is accounted.
func RunSession(net *Network, a, b *Node, bytes int64) {
	s := beginSession(net, a, b, bytes, net.Now())
	if s == nil {
		return
	}
	s.run()
	s.finish()
}

// beginSession constructs a session, or nil when a churned-down
// endpoint suppresses the meeting. now is passed explicitly because the
// parallel engine executes point sessions after the clock has moved
// past their instant.
func beginSession(net *Network, a, b *Node, bytes int64, now float64) *Session {
	if a.Down || b.Down {
		return nil
	}
	s := &Session{net: net, x: a, y: b, budget: bytes, capacity: bytes, now: now}
	s.stats = &s.owned
	return s
}

// run executes the session body. It touches only the two endpoint nodes
// and the session's stats delta (plus read-only run state: config,
// delivery records), which is the confinement the parallel engine's
// per-key chains rely on.
func (s *Session) run() {
	s.control()
	var l transferLoop
	for {
		q, e, ok := s.next(&l)
		if !ok {
			return
		}
		s.commit(&l, q, e, s.now)
	}
}

// control runs Step 1: the opportunity is accounted and observed at
// both ends (the moving average that becomes B in Estimate-Delay),
// metadata is exchanged, acked packets are purged, and routers gossip.
func (s *Session) control() {
	s.stats.Meetings++
	s.stats.OpportunityBytes += s.capacity
	s.x.Ctl.ObserveTransfer(s.capacity)
	s.y.Ctl.ObserveTransfer(s.capacity)

	s.exchangeMetadata()
	s.purgeAcked(s.x)
	s.purgeAcked(s.y)
	s.gossip()
}

// finish folds the session's accounting into the collector and fires
// the opportunity hook — the globally ordered effects of a point
// session, applied in commit order.
func (s *Session) finish() {
	s.net.Collector.Delta.Add(&s.owned)
	if h := s.net.hooks; h != nil && h.OnOpportunityDone != nil {
		h.OnOpportunityDone(s.x.ID, s.y.ID, s.capacity, s.capacity-s.budget, false, s.now)
	}
}

// exchangeMetadata runs the control-plane exchange and charges its
// bytes against the opportunity.
func (s *Session) exchangeMetadata() {
	cfg := s.net.Cfg
	// MetaFraction == 0 disables the *in-band* metadata channel; the
	// instant global channel costs no bandwidth (§6.2.3), so a zero cap
	// must not suppress its hub sync — only ControlNone and a
	// zero-capped in-band channel skip the exchange entirely.
	if cfg.Mode == ControlNone || (cfg.Mode != ControlGlobal && cfg.MetaFraction == 0) {
		// Even without a metadata channel the radios discover each
		// other; meeting history is observable locally.
		s.x.Ctl.Meet.ObserveMeeting(s.y.ID, s.now)
		s.y.Ctl.Meet.ObserveMeeting(s.x.ID, s.now)
		return
	}
	maxBytes := int64(-1)
	switch {
	case cfg.MetaFraction > 0:
		maxBytes = int64(cfg.MetaFraction * float64(s.budget))
	default:
		// Uncapped metadata still cannot exceed the opportunity
		// ("as much bandwidth at the start of a transfer opportunity
		// ... as it requires").
		maxBytes = s.budget
	}
	opts := control.Options{
		MaxBytes:  maxBytes,
		LocalOnly: cfg.LocalOnlyMeta,
		AcksOnly:  cfg.AcksOnly,
	}
	res := control.Exchange(
		s.x.Ctl, s.y.Ctl,
		s.x.Router.Inventory(s.now), s.y.Router.Inventory(s.now),
		s.now, opts,
	)
	s.budget -= res.Bytes
	s.stats.MetaBytes += res.Bytes
}

// purgeAcked drops buffered copies of packets now known delivered
// ("flooding acknowledgments improves delivery rates by removing
// useless packets from the network").
func (s *Session) purgeAcked(n *Node) {
	victims := n.purgeScratch[:0]
	for _, e := range n.Store.Entries() {
		if n.Ctl.IsAcked(e.P.ID) {
			victims = append(victims, e.P.ID)
		}
	}
	for _, id := range victims {
		n.Store.Remove(id)
	}
	n.purgeScratch = victims
}

// gossip lets protocol-specific state flow (free of charge — only
// RAPID's control channel is byte-accounted, per §6.1).
func (s *Session) gossip() {
	if g, ok := s.x.Router.(Gossiper); ok {
		g.GossipWith(s.y.Router, s.now)
	}
	if g, ok := s.y.Router.(Gossiper); ok {
		g.GossipWith(s.x.Router, s.now)
	}
}

// The four queues of one opportunity, in the order Protocol rapid
// reads and drains them: the direct queues X→Y and Y→X (Step 2), then
// the replication plans X→Y and Y→X (Step 3). An even index sends X→Y.
const (
	directXY = iota
	directYX
	planXY
	planYX
)

// transferLoop is the selection state of Steps 2–3: the four queues,
// a cursor into each, and whose plan is next in the round-robin. A
// queue whose cursor has reached its end stays exhausted, which is
// what stops a direction for good. A point session pulls a plan from a
// PlanPuller instead of reading its slice; the pulled plan then stands
// in for that plan's queue and cursor.
type transferLoop struct {
	queues [4][]*buffer.Entry
	// est pins each plan's replica-delay evaluator (X's, then Y's);
	// nil selects the sender's live estimator.
	est [2]ReplicaDelayFunc
	// pulled holds each plan pulled from a PlanPuller (X's, then Y's).
	pulled [2]ReplicationPlan
	// at is the cursor into each queue. It and the two counters below
	// are narrow because a window carries this loop for its whole life
	// and never pulls: the narrow fields pay for the pulled slots.
	at [4]int32
	// filled counts the queues read so far (queues[:filled]).
	filled uint8
	// turn is 0 when X's plan is tried next, 1 for Y's.
	turn uint8
}

// side returns the sender and receiver of queue q.
func (s *Session) side(q int) (from, to *Node) {
	if q%2 == 0 {
		return s.x, s.y
	}
	return s.y, s.x
}

// fill reads the queues up to and including q from the routers, in
// queue order, skipping those already read. A plan is pulled when its
// router can supply one that way. Router slices and pulled plans are
// scratch that the routers' next call overwrites.
func (s *Session) fill(l *transferLoop, q int) {
	for ; int(l.filled) <= q; l.filled++ {
		if i := int(l.filled) - planXY; i >= 0 {
			from, to := s.side(int(l.filled))
			if p, ok := from.Router.(PlanPuller); ok {
				l.pulled[i] = p.PullReplication(to, s.now)
				continue
			}
		}
		l.queues[l.filled] = s.queue(int(l.filled))
	}
}

// queue reads queue q's slice from its router.
func (s *Session) queue(q int) []*buffer.Entry {
	from, to := s.side(q)
	if q < planXY {
		return from.Router.DirectQueue(to.ID, s.now)
	}
	return from.Router.PlanReplication(to, s.now)
}

// next selects the opportunity's next transfer: its queue and entry,
// or ok false once every queue is exhausted. Direct deliveries go
// first, X→Y then Y→X; the two replication plans then take turns, a
// direction whose plan is exhausted passing its turn to the other.
// Each queue is read from its router when the selection first reaches
// it, unless the caller filled it already.
func (s *Session) next(l *transferLoop) (int, *buffer.Entry, bool) {
	for q := directXY; q <= directYX; q++ {
		s.fill(l, q)
		if e, ok := s.pick(l, q); ok {
			return q, e, true
		}
	}
	s.fill(l, planYX)
	for range 2 {
		q := planXY + int(l.turn)
		l.turn ^= 1
		if e, ok := s.pick(l, q); ok {
			return q, e, true
		}
	}
	return 0, nil, false
}

// pick takes queue q's next entry that fits the remaining budget (a
// smaller one later in the queue may fit when a larger one does not)
// and may still move, and returns it.
func (s *Session) pick(l *transferLoop, q int) (*buffer.Entry, bool) {
	for {
		e := l.take(q, s.budget)
		if e == nil {
			return nil, false
		}
		if s.movable(q, e) {
			return e, true
		}
	}
}

// take advances queue q past its next entry that fits budget and
// returns it, or nil once none is left that fits. Entries passed over
// are dropped for good: a session's budget never grows.
func (l *transferLoop) take(q int, budget int64) *buffer.Entry {
	if q >= planXY && l.pulled[q-planXY] != nil {
		return l.pulled[q-planXY].Next(budget)
	}
	for int(l.at[q]) < len(l.queues[q]) {
		e := l.queues[q][l.at[q]]
		l.at[q]++
		if e.P.Size <= budget {
			return e
		}
	}
	return nil
}

// movable applies the per-candidate filters of queue q that can change
// while a packet is in flight, so they are checked at selection and
// again at commit. A direct delivery (Step 2) needs the sender to still
// hold the packet; one already known delivered and acked is purged
// without transmission. A replica needs replicableState.
func (s *Session) movable(q int, e *buffer.Entry) bool {
	from, to := s.side(q)
	if q >= planXY {
		return replicableState(e, from, to)
	}
	id := e.P.ID
	if !from.Store.Has(id) {
		return false
	}
	//rapidlint:allow shardcommit — per-packet record read: a packet's record is only written by sessions sharing its destination endpoint, so the shard conflict rule already orders this against every writer (DESIGN.md §12)
	if s.net.Collector.IsDelivered(id) && from.Ctl.IsAcked(id) {
		from.Store.Remove(id)
		return false
	}
	return true
}

// commit completes a selected transfer at now. Bytes are spent before
// the loss draw and whether or not the receiver keeps the packet: the
// radio already sent them. The delivery or replica then commits only if
// it is still movable — a window's transfer may have been overtaken
// through a concurrent window while in flight; a point session commits
// right after selecting, so the re-check always passes there.
func (s *Session) commit(l *transferLoop, q int, e *buffer.Entry, now float64) {
	from, to := s.side(q)
	s.budget -= e.P.Size
	if s.net.transferLost(e.P.ID, from.ID, to.ID, now) || !s.movable(q, e) {
		return
	}
	if q >= planXY {
		s.acceptReplica(from, to, e, now, l, q-planXY)
	} else {
		s.deliverDirect(from, to, e, now)
	}
}

// deliverDirect finalizes one direct delivery: collector accounting,
// the in-person acknowledgment at both ends ("both parties instantly
// know the packet is delivered: the destination generated the ack"),
// and removal of the sender's copy.
func (s *Session) deliverDirect(from, to *Node, e *buffer.Entry, now float64) {
	s.stats.DataBytes += e.P.Size
	s.stats.DirectDeliveries++
	//rapidlint:allow shardcommit — per-packet record write: only sessions sharing this packet's destination endpoint touch its record, so the shard conflict rule orders it; the global counters fold at commit via s.owned (DESIGN.md §12)
	s.net.Collector.Delivered(e.P.ID, now, e.Hops+1)
	from.Ctl.LearnAck(e.P.ID, now)
	to.Ctl.LearnAck(e.P.ID, now)
	from.Store.Remove(e.P.ID)
	if obs, ok := from.Router.(DeliveryObserver); ok {
		obs.OnDelivered(e.P.ID, now)
	}
	if obs, ok := to.Router.(DeliveryObserver); ok {
		obs.OnDelivered(e.P.ID, now)
	}
	if h := s.net.hooks; h != nil && h.OnDelivered != nil {
		h.OnDelivered(e.P.ID, to.ID, now)
	}
}

// replicableState applies the Step 3 filters that can change while a
// packet is in flight: the candidate must not be a direct delivery,
// must still be held by the sender, and must be new to and unacked at
// both ends.
func replicableState(e *buffer.Entry, from, to *Node) bool {
	id := e.P.ID
	return e.P.Dst != to.ID && // would be direct delivery (Step 2)
		from.Store.Has(id) && // not evicted/delivered since planning
		!to.Store.Has(id) && // Step 3a: peer does not already hold it
		!from.Ctl.IsAcked(id) && !to.Ctl.IsAcked(id)
}

// acceptReplica stores the transmitted copy at the receiver and runs
// the shared post-transfer bookkeeping: replication observers, then —
// only if the receiver keeps the copy — data accounting and the
// replica notes at each end whose records have a reader
// (keepsReplicas), primed with the sender's hypothesized delivery
// estimate for the new replica (RAPID's d_Y; it refreshes at the
// receiver's next exchange either way). The estimate comes from the
// side's pulled plan, which priced the candidate against the
// receiver's buffer as it stood at planning time; else from a window's
// pinned planning-time prices; else from the router's estimator, which
// prices from its last slice plan.
func (s *Session) acceptReplica(from, to *Node, e *buffer.Entry, now float64, l *transferLoop, side int) bool {
	copyEntry := &buffer.Entry{
		P:          e.P,
		ReceivedAt: now,
		Hops:       e.Hops + 1,
		Tokens:     e.Tokens, // router hooks may adjust
	}
	if obs, ok := from.Router.(ReplicationObserver); ok {
		obs.OnReplicated(e, copyEntry, to.ID)
	}
	if !to.Router.Accept(copyEntry, from.ID, now) {
		return false
	}
	s.stats.DataBytes += e.P.Size
	s.stats.Replications++
	delay := math.Inf(1)
	switch {
	case l.pulled[side] != nil:
		delay = l.pulled[side].ReplicaDelay(e)
	case l.est[side] != nil:
		delay = l.est[side](e)
	default:
		if est, ok := from.Router.(ReplicaDelayEstimator); ok {
			delay = est.EstimateReplicaDelay(e, to, now)
		}
	}
	item := control.InventoryItem{
		ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
		Created: e.P.Created, Deadline: e.P.Deadline,
		Delay: delay, Hops: copyEntry.Hops,
	}
	if s.net.keepsReplicas(from) {
		from.Ctl.NoteReplica(item, to.ID, now)
	}
	if s.net.keepsReplicas(to) {
		to.Ctl.NoteReplica(item, to.ID, now)
	}
	return true
}

// keepsReplicas reports whether n's replica records have a reader: its
// own router estimates delays from them (a ReplicaDelayEstimator, i.e.
// RAPID's core), or the control channel gossips and prices them (the
// global channel, or the full in-band exchange). A scenario may
// override the mode of any arm, so the test keys on the reader, not on
// the protocol. Elsewhere — ControlNone, acks-only exchanges — nothing
// reads a record, and acceptReplica writes none.
func (net *Network) keepsReplicas(n *Node) bool {
	if _, ok := n.Router.(ReplicaDelayEstimator); ok {
		return true
	}
	switch net.Cfg.Mode {
	case ControlGlobal:
		return true
	case ControlInBand:
		return !net.Cfg.AcksOnly
	}
	return false
}
