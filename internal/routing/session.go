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
//  1. metadata exchange (control plane; byte-accounted, possibly capped)
//  2. purge of packets now known to be delivered
//  3. direct delivery, both directions
//  4. replication, both directions interleaved round-robin in each
//     side's decreasing marginal-utility order
//  5. termination when the byte budget is exhausted or both sides run
//     out of candidates
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

// beginSession constructs a point session, or nil when a churned-down
// endpoint suppresses the meeting. now is passed explicitly because the
// parallel engine executes sessions after the clock has moved past
// their instant.
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
	s.stats.Meetings++
	s.stats.OpportunityBytes += s.capacity

	// Both ends observe the opportunity size (the moving average that
	// becomes B in Estimate-Delay).
	s.x.Ctl.ObserveTransfer(s.capacity)
	s.y.Ctl.ObserveTransfer(s.capacity)

	s.exchangeMetadata()
	s.purgeAcked(s.x)
	s.purgeAcked(s.y)
	s.gossip()

	s.directDeliver(s.x, s.y)
	s.directDeliver(s.y, s.x)
	s.replicate()
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
	// must not suppress its snapshot sync — only ControlNone and a
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

// directEligible applies Step 2's per-candidate filters: a packet that
// exceeds the remaining budget is skipped (a smaller packet later in
// the queue may still fit); a packet already known delivered and acked
// is purged without transmission. Shared by the instantaneous and
// windowed paths.
func (s *Session) directEligible(e *buffer.Entry, from *Node) (send, purge bool) {
	if s.budget < e.P.Size {
		return false, false
	}
	//rapidlint:allow shardcommit — per-packet record read: a packet's record is only written by sessions sharing its destination endpoint, so the shard conflict rule already orders this against every writer (DESIGN.md §12)
	if s.net.Collector.IsDelivered(e.P.ID) && from.Ctl.IsAcked(e.P.ID) {
		return false, true
	}
	return true, false
}

// deliverDirect finalizes one direct delivery: collector accounting,
// the in-person acknowledgment at both ends ("both parties instantly
// know the packet is delivered: the destination generated the ack"),
// and removal of the sender's copy. Shared by the instantaneous and
// windowed paths.
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

// directDeliver sends packets destined to `to` (Protocol rapid Step 2).
func (s *Session) directDeliver(from, to *Node) {
	for _, e := range from.Router.DirectQueue(to.ID, s.now) {
		send, purge := s.directEligible(e, from)
		if purge {
			from.Store.Remove(e.P.ID)
			continue
		}
		if !send {
			continue
		}
		// Bytes are spent before the loss draw: a lost transfer still
		// burned the radio time.
		s.budget -= e.P.Size
		if s.net.transferLost(e.P.ID, from.ID, to.ID, s.now) {
			continue
		}
		s.deliverDirect(from, to, e, s.now)
	}
}

// replicate interleaves the two directions' replication plans
// (Protocol rapid Steps 3a–3c) until the budget or both plans are
// exhausted.
func (s *Session) replicate() {
	planX := s.x.Router.PlanReplication(s.y, s.now)
	planY := s.y.Router.PlanReplication(s.x, s.now)
	ix, iy := 0, 0
	turnX := true
	stalledX, stalledY := false, false
	for !stalledX || !stalledY {
		if turnX {
			ix, stalledX = s.replicateNext(s.x, s.y, planX, ix)
		} else {
			iy, stalledY = s.replicateNext(s.y, s.x, planY, iy)
		}
		turnX = !turnX
	}
}

// replicableState applies the Step 3 filters that can change while a
// packet is in flight: the candidate must not be a direct delivery,
// must still be held by the sender, and must be new to and unacked at
// both ends. Shared by the instantaneous path (at transfer time) and
// the windowed path (at selection and again at completion).
func replicableState(e *buffer.Entry, from, to *Node) bool {
	id := e.P.ID
	return e.P.Dst != to.ID && // would be direct delivery (Step 2)
		from.Store.Has(id) && // not evicted/delivered since planning
		!to.Store.Has(id) && // Step 3a: peer does not already hold it
		!from.Ctl.IsAcked(id) && !to.Ctl.IsAcked(id)
}

// replicable is replicableState plus the budget filter applied at
// selection time (an oversized candidate is skipped; a smaller one
// later in the plan may still fit).
func (s *Session) replicable(e *buffer.Entry, from, to *Node) bool {
	return replicableState(e, from, to) && e.P.Size <= s.budget
}

// acceptReplica stores the transmitted copy at the receiver and runs
// the shared post-transfer bookkeeping: replication observers, then —
// only if the receiver keeps the copy — data accounting and the
// replica notes at each end whose records have a reader
// (keepsReplicas), primed with the sender's hypothesized delivery
// estimate for the new replica (RAPID's d_Y; it refreshes at the
// receiver's next exchange either way). delayOf pins a windowed
// session's planning-time snapshot; nil selects the live estimator,
// which is exact for the instantaneous path.
func (s *Session) acceptReplica(from, to *Node, e *buffer.Entry, now float64, delayOf ReplicaDelayFunc) bool {
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
	case delayOf != nil:
		delay = delayOf(e)
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

// replicateNext transfers the next eligible candidate from plan[i:],
// returning the advanced index and whether this direction is done.
func (s *Session) replicateNext(from, to *Node, plan []*buffer.Entry, i int) (int, bool) {
	for ; i < len(plan); i++ {
		e := plan[i]
		if !s.replicable(e, from, to) {
			continue
		}
		// Transmit. Bytes are spent whether or not the receiver keeps
		// the copy (the radio already sent them) — and a transfer the
		// disruption layer loses spends them for nothing.
		s.budget -= e.P.Size
		if !s.net.transferLost(e.P.ID, from.ID, to.ID, s.now) {
			s.acceptReplica(from, to, e, s.now, nil)
		}
		return i + 1, false
	}
	return i, true
}
