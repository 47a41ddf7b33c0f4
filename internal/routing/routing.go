// Package routing is the DTN runtime: nodes with buffers and control
// state, the contact session that moves bytes between two nodes during
// a transfer opportunity, the Router interface that protocols implement
// (RAPID in internal/core; baselines under internal/routing/...), and
// the scenario driver that replays a meeting schedule against a
// workload.
//
// Transfer opportunities come in two forms, both run by one Session
// (session.go). Point meetings run it at one instant. Duration-aware
// contacts open at their start event, budget RateBps·Duration bytes,
// and stream the session's transfers across the window — cut off at
// window close, with overlapping windows sharing each node's radio
// fairly (window.go).
//
// The runtime enforces the feasibility constraints of §3.1: the total
// bytes moved during a meeting (control plus data, both directions)
// never exceed the transfer opportunity, and buffered bytes never
// exceed node storage.
package routing

import (
	"cmp"
	"fmt"
	"slices"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/disrupt"
	"rapid/internal/metrics"
	"rapid/internal/packet"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

// ControlMode selects how metadata propagates.
type ControlMode int

const (
	// ControlInBand is the default: metadata rides contacts and costs
	// bandwidth (§4.2).
	ControlInBand ControlMode = iota
	// ControlGlobal is the instant zero-cost global channel
	// (§6.2.3, Figs. 10–13).
	ControlGlobal
	// ControlNone disables the control plane entirely (pure Random).
	ControlNone
)

// String implements fmt.Stringer.
func (m ControlMode) String() string {
	switch m {
	case ControlInBand:
		return "in-band"
	case ControlGlobal:
		return "global"
	case ControlNone:
		return "none"
	default:
		return fmt.Sprintf("ControlMode(%d)", int(m))
	}
}

// Config carries runtime parameters shared by all protocols.
type Config struct {
	// BufferBytes is per-node storage for in-transit data
	// (<= 0: unlimited — the deployment's 40 GB effectively was).
	BufferBytes int64
	// BufferBytesFor, when non-nil, assigns per-node storage and
	// overrides BufferBytes (heterogeneous-buffer scenarios; <= 0 is
	// unlimited for that node).
	BufferBytesFor func(packet.NodeID) int64
	// Mode selects the control plane.
	Mode ControlMode
	// MetaFraction caps metadata at this fraction of each transfer
	// opportunity (Fig. 8's x-axis). Negative means uncapped, the
	// paper's default. Zero disables metadata exchange.
	MetaFraction float64
	// LocalOnlyMeta restricts metadata to packets in the sender's own
	// buffer (the rapid-local ablation arm, Fig. 14).
	LocalOnlyMeta bool
	// AcksOnly restricts the exchange to delivery acknowledgments
	// (Random-with-acks; MaxProp's notification flood).
	AcksOnly bool
	// Hops is the transitive meeting-estimation horizon (default 3).
	Hops int
	// DefaultTransferBytes seeds B (expected opportunity size) before
	// any transfer has been observed.
	DefaultTransferBytes float64
	// Workers selects the event engine's worker count: 0 or 1 run the
	// serial loop, n > 1 spread independent same-batch contact
	// sessions and packet creations across n goroutines, negative uses
	// one worker per available CPU. Both engines execute the same
	// events, so output is byte-identical at every setting; runs the
	// parallel engine cannot prove independent for (global control
	// channel, Bernoulli loss, conformance hooks, routers not marked
	// SessionConfined) silently fall back to serial.
	Workers int
}

// CapacityFor resolves one node's storage capacity in bytes
// (<= 0: unlimited) — the single authority the runtime, plan-ahead
// routers and conformance harnesses all share.
func (c Config) CapacityFor(id packet.NodeID) int64 {
	if c.BufferBytesFor != nil {
		return c.BufferBytesFor(id)
	}
	return c.BufferBytes
}

// DefaultTransferBytesFallback is used when Config.DefaultTransferBytes
// is unset.
const DefaultTransferBytesFallback = 100 << 10

// Node is one DTN node at runtime.
type Node struct {
	ID     packet.NodeID
	Store  *buffer.Store
	Ctl    *control.State
	Router Router
	Net    *Network

	// Down is maintained by the disruption layer's churn events: while
	// set, the node neither forwards nor receives — its sessions are
	// skipped and its live windows cut off. Local packet generation
	// continues (the application queues; only the radio is dark).
	Down bool

	// purgeScratch is the session's reused ack-purge victim buffer.
	purgeScratch []packet.ID
}

// Network owns the nodes, the engine, and the collector for one run.
type Network struct {
	Engine    *sim.Engine
	Nodes     map[packet.NodeID]*Node
	Collector *metrics.Collector
	Cfg       Config
	Global    *control.State // the global channel's hub; nil unless ControlGlobal
	// Horizon is the experiment end time (schedule duration).
	Horizon float64
	// win tracks live windowed contacts and per-node radio load;
	// allocated lazily by the first windowed contact (window.go).
	win *windowState
	// hooks is the optional conformance instrumentation (nil normally).
	hooks *Hooks
	// disrupt is the run's disruption model (nil for pristine runs —
	// the disabled layer stays entirely off the hot path).
	disrupt *disrupt.Model
	// lossSeq counts data transfers, indexing the loss decision stream.
	lossSeq uint64
}

// transferLost draws the loss decision for one data transfer. The
// bytes are already spent when this is consulted — the radio sent
// them — so a lost transfer burns opportunity without moving data.
func (n *Network) transferLost(id packet.ID, from, to packet.NodeID, now float64) bool {
	// The HasLoss guard is not just a fast path: at zero loss the
	// transfer counter is unobservable, so skipping it keeps loss-free
	// disrupted runs (churn, jitter, contact failure) free of shared
	// session state — which is what lets them use the parallel engine.
	if n.disrupt == nil || !n.disrupt.HasLoss() {
		return false
	}
	n.lossSeq++
	if !n.disrupt.Lost(n.lossSeq, id) {
		return false
	}
	//rapidlint:allow shardcommit — unreachable in ExecuteShard: parallelEligible sends every HasLoss run to the serial engine, and the guard above returns first otherwise
	n.Collector.LostTransfers++
	if h := n.hooks; h != nil && h.OnLost != nil {
		h.OnLost(id, from, to, now)
	}
	return true
}

// generated registers a packet's creation with the collector and fires
// the telemetry hook; generateEvent calls it at collection time. Every
// packet of a run, materialized or streamed, enters here, so this is
// where its ID is checked against packet.MaxID.
func (n *Network) generated(p *packet.Packet, now float64) {
	if p.ID < 0 || p.ID >= packet.MaxID {
		panic(fmt.Sprintf("routing: packet %d outside [0,%d)", p.ID, packet.MaxID))
	}
	n.Collector.Generated(p)
	if h := n.hooks; h != nil && h.OnGenerated != nil {
		h.OnGenerated(p, now)
	}
}

// Now returns the simulation clock.
func (n *Network) Now() float64 { return n.Engine.Now() }

// Node returns the node with the given ID, creating it through the
// factory is the driver's job; lookup of a missing node panics (a
// schedule/workload mismatch is a bug in the scenario).
func (n *Network) Node(id packet.NodeID) *Node {
	nd, ok := n.Nodes[id]
	if !ok {
		panic(fmt.Sprintf("routing: unknown node %d", id))
	}
	return nd
}

// Router is the protocol interface. One Router instance is attached to
// each node. Routers are driven entirely by the session: they decide
// what to announce, what to deliver, what to replicate and in what
// order, and how to store incoming packets — the runtime moves the
// bytes and enforces budgets.
type Router interface {
	// Name identifies the protocol in reports.
	Name() string
	// Attach wires the router to its node; called once before the run.
	Attach(n *Node)
	// Generate handles a locally created packet. The router must store
	// it (marking it Own) if it wants it routed.
	Generate(p *packet.Packet, now float64)
	// Inventory returns the announce list for a metadata exchange, with
	// fresh delivery-delay estimates where the protocol computes them.
	Inventory(now float64) []control.InventoryItem
	// DirectQueue returns buffered packets destined to peer, in
	// delivery order (Protocol rapid Step 2: "decreasing order of
	// their utility").
	DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry
	// PlanReplication returns replication candidates for this contact
	// in decreasing marginal-utility-per-byte order (Step 3). The
	// session filters duplicates, acked and oversized packets.
	PlanReplication(peer *Node, now float64) []*buffer.Entry
	// Accept stores an incoming replica, applying the protocol's
	// buffer-management policy; it reports whether the packet was kept.
	Accept(e *buffer.Entry, from packet.NodeID, now float64) bool
}

// Gossiper is an optional Router extension for protocols that exchange
// protocol-specific state at contacts (MaxProp's meeting-probability
// vectors, PRoPHET's delivery predictabilities). The paper charges only
// RAPID for its control channel ("In all experiments, we include the
// cost of rapid's in-band control channel"), so gossip is free.
type Gossiper interface {
	GossipWith(peer Router, now float64)
}

// ReplicationObserver is an optional Router extension notified when one
// of its entries was replicated to a peer (Spray-and-Wait halves its
// token count here).
type ReplicationObserver interface {
	OnReplicated(src *buffer.Entry, copy *buffer.Entry, to packet.NodeID)
}

// ReplicaDelayEstimator is an optional Router extension that supplies
// the expected direct-delivery delay of a replica just pushed to a peer
// (RAPID's hypothesized d_Y for the new copy, used to prime the control
// plane's metadata before the receiver's next exchange refreshes it).
// e must be a candidate of the router's last PlanReplication, which
// must have been for holder; a session prices its replicas in plan
// order.
type ReplicaDelayEstimator interface {
	EstimateReplicaDelay(e *buffer.Entry, holder *Node, now float64) float64
}

// SchedulePrimer is an optional Router extension for protocols that
// plan over the full contact schedule before the run starts (contact-
// graph routing over a deterministic contact plan). Run calls it once
// per node, in deterministic node order, after every router is attached
// and before any event executes. Routers sharing one planner should
// make priming idempotent.
type SchedulePrimer interface {
	PrimeSchedule(sched *trace.Schedule, net *Network)
}

// DeliveryObserver is an optional Router extension notified when a
// direct delivery it participated in completes — sender and receiver
// both observe it. Plan-ahead protocols use this to release downstream
// capacity and buffer reservations the delivered packet no longer
// needs.
type DeliveryObserver interface {
	OnDelivered(id packet.ID, now float64)
}

// ReplicaDelayFunc evaluates the hypothesized delay of replicating an
// entry to a fixed holder, against that holder's state when the plan
// was built.
type ReplicaDelayFunc func(e *buffer.Entry) float64

// ReplicaDelaySnapshotter is an optional refinement of
// ReplicaDelayEstimator for sessions that outlive their planning
// instant (windowed contacts): the returned closure keeps the prices
// of the router's last plan, which must have been PlanReplication's
// for holder, so later per-send evaluations stay consistent even when
// interleaved contacts at the same node plan for other peers. Its
// arguments, like ReplicaDelayEstimator's, are candidates of that plan
// in plan order.
type ReplicaDelaySnapshotter interface {
	SnapshotReplicaDelays(holder *Node) ReplicaDelayFunc
}

// ReplicationPlan is a replication plan that a session pulls from one
// candidate at a time, instead of reading it whole as a slice: Protocol
// rapid's Step 3 replicates "in decreasing order of marginal utility
// per byte until the transfer opportunity ends", and an opportunity
// usually ends long before the plan does.
type ReplicationPlan interface {
	// Next returns the plan's next candidate, in the order
	// PlanReplication would list it, whose size fits budget; nil once
	// none is left that fits. Candidates passed over are dropped: the
	// caller's budget must never grow between calls, which a session's
	// does not. The sequence returned is exactly what walking
	// PlanReplication's slice with the same budgets would take.
	Next(budget int64) *buffer.Entry
	// ReplicaDelay returns the hypothesized direct-delivery delay of a
	// replica of e at the plan's peer (ReplicaDelayEstimator's value),
	// priced against the peer's buffer as it stood when the plan was
	// built. e must be the candidate Next returned last.
	ReplicaDelay(e *buffer.Entry) float64
}

// PlanPuller is an optional Router extension that supplies Step 3's
// plan as a ReplicationPlan. A point session pulls from it while its
// budget lasts, so a router can order candidates lazily instead of
// sorting them all. The plan is router scratch, valid until the
// router's next PullReplication or PlanReplication, and it replaces
// the router's last slice plan: ReplicaDelayEstimator and
// ReplicaDelaySnapshotter do not price its replicas (its ReplicaDelay
// does). A windowed session outlives the plan, so it still reads
// PlanReplication's slice.
type PlanPuller interface {
	PullReplication(peer *Node, now float64) ReplicationPlan
}

// RouterFactory builds a fresh Router per node.
type RouterFactory func(id packet.NodeID) Router

// Hooks is optional runtime instrumentation for conformance testing:
// the cross-protocol invariant harness attaches one to observe physical
// deliveries, per-opportunity byte spending, and event-granular network
// state without touching protocol code. All fields may be nil.
type Hooks struct {
	// OnGenerated fires when a workload packet enters the network at its
	// source (right after the collector registers it) — the simulation
	// service streams these as per-packet telemetry. Like every other
	// hook it forces the serial engine, so hooked runs stay
	// byte-identical to unhooked ones.
	OnGenerated func(p *packet.Packet, now float64)
	// OnDelivered fires at every physical direct delivery, including
	// re-deliveries of a packet already delivered through another
	// replica (legitimate before the ack reaches the extra copies).
	OnDelivered func(id packet.ID, dst packet.NodeID, now float64)
	// OnOpportunityDone fires when a transfer opportunity finishes —
	// a point session returns, or a contact window closes — with its
	// total capacity and the bytes actually spent (control plus data,
	// both directions). spent > capacity is a runtime budgeting bug.
	// Opportunities suppressed by the disruption layer (failed
	// contacts, churned-down endpoints) never fire it.
	OnOpportunityDone func(a, b packet.NodeID, capacity, spent int64, windowed bool, now float64)
	// OnLost fires when the disruption layer loses a data transfer in
	// flight: the bytes were spent but the receiver got nothing, so a
	// delivery or replication of this packet must not result from this
	// transfer.
	OnLost func(id packet.ID, from, to packet.NodeID, now float64)
	// AfterEvent runs after every simulation event with the live
	// network (buffer-occupancy invariants are asserted here).
	AfterEvent func(net *Network)
}

// NewNetwork builds nodes for the given IDs with the factory.
func NewNetwork(engine *sim.Engine, ids []packet.NodeID, f RouterFactory, cfg Config) *Network {
	if cfg.Hops <= 0 {
		cfg.Hops = 3
	}
	if cfg.DefaultTransferBytes <= 0 {
		cfg.DefaultTransferBytes = DefaultTransferBytesFallback
	}
	net := &Network{
		Engine:    engine,
		Nodes:     make(map[packet.NodeID]*Node, len(ids)),
		Collector: metrics.New(),
		Cfg:       cfg,
	}
	if cfg.Mode == ControlGlobal {
		net.Global = control.NewHub(cfg.Hops)
	}
	for _, id := range ids {
		n := &Node{
			ID:    id,
			Store: buffer.New(cfg.CapacityFor(id)),
			Ctl:   control.NewState(id, cfg.Hops, net.Global),
			Net:   net,
		}
		n.Router = f(id)
		n.Router.Attach(n)
		net.Nodes[id] = n
	}
	return net
}

// Event bands order the events Run schedules at one instant, lowest
// first: stream pumps, packet creations, point meetings, contact
// occurrences (zero-duration contacts and window opens/closes,
// interleaved in schedule order), churn toggles, and then band 0 —
// everything the run's own events schedule while it executes. Within a
// band events run in insertion order. Because the bands, not insertion
// time, order the kinds, creations scheduled upfront and occurrences
// pumped during the run interleave exactly as one upfront-scheduled
// stream would.
const (
	bandPump     = -5 // source and occurrence pump re-arms
	bandWorkload = -4 // packet creations
	bandMeeting  = -3 // point meetings
	bandContact  = -2 // schedule contacts and plan windows
	bandChurn    = -1 // churn down/up toggles
)

// Scenario couples a schedule, a workload and a protocol for Run.
type Scenario struct {
	// Schedule is the materialized contact schedule. Exactly one of
	// Schedule and Plan must be set.
	Schedule *trace.Schedule
	// Plan, when Schedule is nil, is the compressed periodic contact
	// plan. Run always pumps its occurrences off a trace.PlanCursor, so
	// the event stream stays O(plan size) instead of O(occurrences); a
	// Schedule feeds the same pump from its slices. Only SchedulePrimer
	// protocols see the plan expanded, once, to prime on.
	Plan *trace.ContactPlan
	// Workload is the materialized packet workload.
	Workload packet.Workload
	// Source, when non-nil, replaces Workload with a streaming
	// generator whose creation events are scheduled on demand.
	Source  packet.Source
	Factory RouterFactory
	Cfg     Config
	Seed    int64
	// MergePlanWindows coalesces back-to-back windowed occurrences when
	// running off Plan (see trace.PlanCursor); semantics-changing, so
	// opt-in.
	MergePlanWindows bool
	// Disrupt declares the run's stochastic disruption model; the zero
	// value (Enabled false) is the pristine network and keeps the
	// disruption layer entirely off the hot path.
	Disrupt disrupt.Spec
	// DisruptSeed seeds the disruption decision streams (derive with
	// disrupt.DeriveSeed so replications stay independent).
	DisruptSeed uint64
	// Hooks attaches conformance instrumentation to the run (nil for
	// normal runs).
	Hooks *Hooks
}

// Horizon returns the run's end time: the schedule's duration, else the
// plan's, else 0.
func (sc Scenario) Horizon() float64 {
	if sc.Schedule != nil {
		return sc.Schedule.Duration
	}
	if sc.Plan != nil {
		return sc.Plan.Duration
	}
	return 0
}

// Run replays the scenario and returns the collector. Packets whose
// source or destination never appears in the schedule are still
// injected (their node simply has no meetings).
//
// Every run takes one event path. Packet creations and point sessions
// are shard events (parallel.go), which the serial engine executes
// whole and the parallel engine may batch. Contact occurrences are
// scheduled during the run by one pump, fed by the plan's cursor or by
// the schedule's slices, whichever the scenario holds.
//
// When sc.Disrupt is enabled, each occurrence's fate is decided as it
// is pumped: a failed contact is skipped, a surviving one is scheduled
// at its jittered instant, both keyed by the occurrence's nominal
// position (see occurrence). Node churn is expanded into down/up
// toggle events. Plan-ahead protocols still prime on the *nominal*
// schedule — the whole point of the disruption families is that their
// plans can break.
func Run(sc Scenario) *metrics.Collector {
	engine := sim.New(sc.Seed)
	horizon := sc.Horizon()
	ids := participantIDs(sc)
	net := NewNetwork(engine, ids, sc.Factory, sc.Cfg)
	net.Horizon = horizon
	net.hooks = sc.Hooks
	if sc.Hooks != nil && sc.Hooks.AfterEvent != nil {
		engine.AfterEvent = func(*sim.Engine) { sc.Hooks.AfterEvent(net) }
	}
	var model *disrupt.Model
	if sc.Disrupt.Enabled {
		if err := sc.Disrupt.Validate(); err != nil {
			panic(err.Error())
		}
		model = disrupt.New(sc.Disrupt, sc.DisruptSeed)
		net.disrupt = model
	}

	// Plan-ahead protocols see the full schedule before any event runs
	// (the contact plan is known a priori in their deployment setting).
	// A plan-driven run expands its plan for them alone; the expansion
	// is dead once priming ends.
	nominal := sc.Schedule
	for _, id := range ids {
		if pr, ok := net.Nodes[id].Router.(SchedulePrimer); ok {
			if nominal == nil {
				nominal = sc.Plan.Expand()
			}
			pr.PrimeSchedule(nominal, net)
		}
	}

	// The parallel engine is decided once per run; the events are the
	// same either way, and the output is byte-identical.
	if workers := resolveWorkers(sc.Cfg.Workers); workers > 1 && parallelEligible(sc, net, ids) {
		engine.SetWorkers(workers)
	}

	create := func(p *packet.Packet) {
		engine.ScheduleBand(p.Created, bandWorkload, &generateEvent{net: net, p: p})
	}
	if sc.Source != nil {
		startPump(engine, func() (*packet.Packet, float64, bool) {
			p, ok := sc.Source.Next()
			if !ok {
				return nil, 0, false
			}
			return p, p.Created, true
		}, create)
	} else {
		for _, p := range sc.Workload {
			create(p)
		}
	}
	var next func() (occurrence, bool)
	if sc.Schedule != nil {
		next = scheduleOccurrences(sc.Schedule)
	} else {
		next = planOccurrences(sc.Plan, sc.MergePlanWindows)
	}
	startPump(engine, survivors(next, model, sc.Disrupt.JitterSec, horizon),
		func(o occurrence) { scheduleOccurrence(net, o, horizon) })

	// Node churn: expand each node's down intervals into toggle events.
	// Going down cuts the node's live windows; a contact whose endpoint
	// is down is skipped at its own event. bandChurn puts a toggle after
	// the contacts at its instant, so they resolve before the radio
	// drops.
	if model != nil {
		for _, id := range ids {
			node := net.Nodes[id]
			for _, iv := range model.DownIntervals(id, horizon) {
				engine.ScheduleBandFunc(iv.Start, bandChurn, func(e *sim.Engine) {
					node.Down = true
					net.churnClose(node.ID)
				})
				if iv.End < horizon {
					engine.ScheduleBandFunc(iv.End, bandChurn, func(e *sim.Engine) {
						node.Down = false
					})
				}
			}
		}
	}
	engine.RunUntil(horizon)
	net.Collector.EventsExecuted = engine.Executed
	net.Collector.Batches = engine.Batches
	net.Collector.BatchedEvents = engine.BatchedEvents
	net.Collector.CriticalPath = engine.CriticalPath
	for _, id := range ids {
		net.Collector.Meet.Add(net.Nodes[id].Ctl.Meet.Stats())
	}
	if net.Global != nil {
		net.Collector.Meet.Add(net.Global.Meet.Stats())
	}
	return net.Collector
}

// participantIDs unions schedule (or plan) nodes and workload (or
// source) endpoints.
func participantIDs(sc Scenario) []packet.NodeID {
	seen := map[packet.NodeID]bool{}
	var ids []packet.NodeID
	add := func(id packet.NodeID) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	switch {
	case sc.Schedule != nil:
		for _, id := range sc.Schedule.Nodes() {
			add(id)
		}
	case sc.Plan != nil:
		for _, id := range sc.Plan.Nodes() {
			add(id)
		}
	}
	if sc.Source != nil {
		for _, id := range sc.Source.Endpoints() {
			add(id)
		}
	}
	for _, p := range sc.Workload {
		add(p.Src)
		add(p.Dst)
	}
	return ids
}

// pumpAhead is how many stream items one pump event schedules. Events
// at one instant run in band order, not insertion order, so items may
// be scheduled any time before their instant; a small batch amortizes
// the pump event and keeps the pending queue short.
const pumpAhead = 64

// startPump schedules a time-ordered stream during the run: next yields
// each item with its instant, and each pump event hands the next
// pumpAhead items to schedule, in stream order, then re-arms at the
// instant of the item after them. The pump runs in bandPump, ahead of
// everything it schedules at its own instant. It only advances its
// private stream and schedules, so it is a sim.InlineFunc: the
// parallel engine runs it without flushing the pending batch.
func startPump[T any](engine *sim.Engine, next func() (T, float64, bool), schedule func(T)) {
	item, at, ok := next()
	if !ok {
		return
	}
	var pump sim.InlineFunc
	pump = func(*sim.Engine) {
		for range pumpAhead {
			schedule(item)
			if item, at, ok = next(); !ok {
				return
			}
		}
		engine.ScheduleBand(at, bandPump, pump)
	}
	engine.ScheduleBand(at, bandPump, pump)
}

// occurrence is one nominal contact occurrence, the band its events
// run in, and its disruption key: its position among the run's
// nominal occurrences, meetings (points) first, then contacts
// (windows) — a stable identity regardless of which others fail.
type occurrence struct {
	c    trace.Contact
	band int32
	key  int
}

// planOccurrences streams a plan cursor's occurrences: points in
// bandMeeting, keyed by their index among points, and windows in
// bandContact, keyed by the plan's point count plus their index among
// windows — the bands and positions of the Meetings and Contacts
// lists Expand would put them in.
func planOccurrences(plan *trace.ContactPlan, merge bool) func() (occurrence, bool) {
	cur := plan.Cursor(merge)
	nPoints, _ := plan.Occurrences()
	points, windows := 0, nPoints
	return func() (occurrence, bool) {
		c, ok := cur.Next()
		if !c.Windowed() {
			points++
			return occurrence{c, bandMeeting, points - 1}, ok
		}
		windows++
		return occurrence{c, bandContact, windows - 1}, ok
	}
}

// scheduleOccurrences streams the schedule's two lists, each in stable
// time order, merged by time with meetings first at equal instants:
// meetings in bandMeeting, contacts (zero-duration ones included) in
// bandContact, each keyed by its list position (Run does not require
// a validated, sorted schedule).
func scheduleOccurrences(s *trace.Schedule) func() (occurrence, bool) {
	mo := timeOrder(s.Meetings, func(m trace.Meeting) float64 { return m.Time })
	co := timeOrder(s.Contacts, func(c trace.Contact) float64 { return c.Start })
	i, j := 0, 0
	return func() (occurrence, bool) {
		if i < len(s.Meetings) && (j == len(s.Contacts) || s.Meetings[mo(i)].Time <= s.Contacts[co(j)].Start) {
			k := mo(i)
			m := s.Meetings[k]
			i++
			return occurrence{trace.Contact{A: m.A, B: m.B, Start: m.Time, Bytes: m.Bytes}, bandMeeting, k}, true
		}
		if j < len(s.Contacts) {
			k := co(j)
			j++
			return occurrence{s.Contacts[k], bandContact, len(s.Meetings) + k}, true
		}
		return occurrence{}, false
	}
}

// timeOrder maps a rank in stable time order to a position in s: the
// identity when s is sorted, else a sorted permutation of positions.
func timeOrder[T any](s []T, at func(T) float64) func(int) int {
	byTime := func(a, b T) int { return cmp.Compare(at(a), at(b)) }
	if slices.IsSortedFunc(s, byTime) {
		return func(i int) int { return i }
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return byTime(s[a], s[b]) })
	return func(i int) int { return order[i] }
}

// survivors streams the occurrences that happen under the disruption
// model (all of them without one), each at its realized instant. A
// failed occurrence is skipped, and so is one jittered outside the
// observation window [0, horizon): it happened before the run began or
// after it ended, so executing it at a clamped instant would account
// opportunity that never existed. Each survivor's pump instant is its
// nominal instant less the largest jitter, no earlier than 0: never
// past the realized instant, and nondecreasing along the nominal order.
func survivors(next func() (occurrence, bool), model *disrupt.Model, jitter, horizon float64) func() (occurrence, float64, bool) {
	return func() (occurrence, float64, bool) {
		for {
			o, ok := next()
			if !ok {
				return occurrence{}, 0, false
			}
			if model == nil {
				return o, o.c.Start, true
			}
			nominal := o.c.Start
			o.c.Start += model.Jitter(o.key)
			if model.ContactFails(o.key) || o.c.Start < 0 || (horizon > 0 && o.c.Start >= horizon) {
				continue
			}
			return o, max(0, nominal-jitter), true
		}
	}
}

// scheduleOccurrence schedules one occurrence in its band: a point
// contact as a session shard event, a window as an open/close pair of
// plain events (flush barriers — a window's open and close must see
// every earlier session applied). A window never dangles past the
// horizon.
func scheduleOccurrence(net *Network, o occurrence, horizon float64) {
	c := o.c
	if !c.Windowed() {
		net.Engine.ScheduleBand(c.Start, o.band, &sessionEvent{
			net: net, a: net.Node(c.A), b: net.Node(c.B),
			bytes: c.Bytes, at: c.Start,
		})
		return
	}
	var w *winContact
	net.Engine.ScheduleBandFunc(c.Start, o.band, func(*sim.Engine) {
		w = openWindow(net, c)
	})
	net.Engine.ScheduleBandFunc(c.EndWithin(horizon), o.band, func(*sim.Engine) {
		if w != nil {
			closeWindow(net, w)
		}
	})
}
