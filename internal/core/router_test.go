package core

import (
	"math/rand"
	"slices"
	"testing"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/metrics"
	"rapid/internal/mobility"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

func TestGenerateStoresOwnProtectedCopy(t *testing.T) {
	_, n0, _ := testNet(t, AvgDelay, 0)
	p := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 100, Created: 0}
	n0.Router.Generate(p, 0)
	e := n0.Store.Get(1)
	if e == nil || !e.Own {
		t.Fatal("generated packet not stored as own copy")
	}
	// In-band, nothing reads a record of the node's own copy.
	if got := n0.Ctl.ReplicaCount(1); got != 0 {
		t.Errorf("in-band self replica recorded: %d replicas", got)
	}

	// On the global channel the shared snapshot lists the generator.
	net := routing.NewNetwork(sim.New(1), []packet.NodeID{0, 1, 2},
		New(AvgDelay), routing.Config{Mode: routing.ControlGlobal, DefaultTransferBytes: 1000})
	net.Node(0).Router.Generate(p, 0)
	if reps := net.Node(2).Ctl.Replicas(1); len(reps) != 1 || reps[0].Holder != 0 {
		t.Errorf("global snapshot replicas %+v, want the generator", reps)
	}
}

// TestNoSelfHeldRecordsInBand: throughout an in-band RAPID run no
// node's record of any workload packet lists the node itself, while
// records of other holders exist. On the global channel the hub lists
// the source of every generated packet not yet acked, and keeps no
// record of an acked one.
func TestNoSelfHeldRecordsInBand(t *testing.T) {
	model := mobility.Exponential{Config: mobility.Config{
		Nodes: 8, Duration: 600, MeanMeeting: 60, TransferBytes: 20 << 10,
	}}
	sched := model.Schedule(rand.New(rand.NewSource(3)))
	w := packet.Generate(packet.GenConfig{
		Nodes: sched.Nodes(), PacketsPerHourPerDest: 1, LoadWindow: 50,
		Duration: 400, PacketSize: 1 << 10, FirstID: 1,
	}, rand.New(rand.NewSource(4)))
	// run returns the network as the last event left it, calling check
	// (if any) after every event.
	run := func(mode routing.ControlMode, check func(*routing.Network)) (*routing.Network, *metrics.Collector) {
		var net *routing.Network
		c := routing.Run(routing.Scenario{
			Schedule: sched, Workload: w, Factory: New(AvgDelay),
			Cfg: routing.Config{
				BufferBytes: 100 << 10, Mode: mode,
				MetaFraction: -1, DefaultTransferBytes: 20 << 10,
			},
			Seed: 5,
			Hooks: &routing.Hooks{AfterEvent: func(n *routing.Network) {
				net = n
				if check != nil {
					check(n)
				}
			}},
		})
		if c.Replications == 0 {
			t.Fatalf("%v: vacuous run (no replications)", mode)
		}
		return net, c
	}

	nodes := sched.Nodes()
	others := 0
	run(routing.ControlInBand, func(net *routing.Network) {
		for _, p := range w {
			for _, id := range nodes {
				for _, rep := range net.Node(id).Ctl.Replicas(p.ID) {
					if rep.Holder == id {
						t.Fatalf("node %d's record of packet %d lists the node itself: %+v", id, p.ID, net.Node(id).Ctl.Replicas(p.ID))
					}
					others++
				}
			}
		}
	})
	if others == 0 {
		t.Fatal("in-band run kept no replica records at all")
	}
	t.Logf("%d packets, %d other-holder entries seen", len(w), others)

	// Throughout a global run, check every packet generated so far.
	var acked, open int
	run(routing.ControlGlobal, func(net *routing.Network) {
		for _, r := range net.Collector.Records() {
			if net.Global.IsAcked(r.P.ID) {
				// Metadata for delivered packets is deleted (§4.2).
				if m := net.Global.Meta(r.P.ID); m != nil {
					t.Fatalf("hub keeps a record of acked packet %d: %+v", r.P.ID, m)
				}
				acked++
				continue
			}
			reps := net.Node(r.P.Src).Ctl.Replicas(r.P.ID)
			if !slices.ContainsFunc(reps, func(rep control.ReplicaEstimate) bool { return rep.Holder == r.P.Src }) {
				t.Fatalf("hub record of packet %d does not list its source %d: %+v", r.P.ID, r.P.Src, reps)
			}
			open++
		}
	})
	if acked == 0 || open == 0 {
		t.Fatalf("global run saw %d acked and %d unacked packet states; both checks need some", acked, open)
	}
}

func TestDirectQueueOrdering(t *testing.T) {
	_, n0, _ := testNet(t, AvgDelay, 0)
	mk := func(id packet.ID, created float64) *buffer.Entry {
		return &buffer.Entry{P: &packet.Packet{ID: id, Dst: 1, Size: 10, Created: created}}
	}
	n0.Store.Insert(mk(1, 30), nil)
	n0.Store.Insert(mk(2, 10), nil)
	n0.Store.Insert(mk(3, 20), nil)
	n0.Store.Insert(&buffer.Entry{P: &packet.Packet{ID: 4, Dst: 9, Size: 10, Created: 0}}, nil)
	q := n0.Router.DirectQueue(1, 50)
	if len(q) != 3 {
		t.Fatalf("queue %v", q)
	}
	if q[0].P.ID != 2 || q[1].P.ID != 3 || q[2].P.ID != 1 {
		t.Errorf("order %v %v %v want oldest first", q[0].P.ID, q[1].P.ID, q[2].P.ID)
	}
}

func TestDirectQueueDeadlineEDF(t *testing.T) {
	_, n0, _ := testNet(t, Deadline, 0)
	mk := func(id packet.ID, created, deadline float64) *buffer.Entry {
		return &buffer.Entry{P: &packet.Packet{ID: id, Dst: 1, Size: 10, Created: created, Deadline: deadline}}
	}
	n0.Store.Insert(mk(1, 0, 100), nil) // remaining 50 at now=50
	n0.Store.Insert(mk(2, 0, 60), nil)  // remaining 10: most urgent
	n0.Store.Insert(mk(3, 0, 40), nil)  // expired
	q := n0.Router.DirectQueue(1, 50)
	if q[0].P.ID != 2 || q[1].P.ID != 1 || q[2].P.ID != 3 {
		t.Errorf("EDF order %v %v %v want 2,1,3", q[0].P.ID, q[1].P.ID, q[2].P.ID)
	}
}

func TestPlanReplicationPrefersFewReplicasAndGoodPeers(t *testing.T) {
	// Paper §3.3: marginal utility is low when a packet has many
	// replicas or when the peer is a poor choice for the destination.
	_, n0, n1 := testNet(t, AvgDelay, 0)
	now := 100.0
	// n0 meets both destinations equally often; n1 meets them too.
	n0.Ctl.Meet.ObserveMeeting(2, 100)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(10000)

	pMany := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 100, Created: 0}
	pFew := &packet.Packet{ID: 2, Src: 0, Dst: 2, Size: 100, Created: 0}
	n0.Router.Generate(pMany, 0)
	n0.Router.Generate(pFew, 0)
	// pMany already has 5 remote replicas with decent estimates.
	for h := packet.NodeID(10); h < 15; h++ {
		n0.Ctl.NoteReplica(control.InventoryItem{
			ID: pMany.ID, Dst: pMany.Dst, Size: pMany.Size,
			Created: pMany.Created, Delay: 120,
		}, h, 1)
	}
	plan := n0.Router.PlanReplication(n1, now)
	if len(plan) != 2 {
		t.Fatalf("plan size %d want 2: both replicable", len(plan))
	}
	if plan[0].P.ID != 2 {
		t.Errorf("packet with fewer replicas must rank first, got %d", plan[0].P.ID)
	}
}

func TestPlanReplicationRanksUselessPeerLast(t *testing.T) {
	// A packet whose destination the peer can never reach (per the
	// meeting matrix) yields zero marginal utility and is relegated to
	// the work-conserving tail, behind every packet with measurable
	// gain.
	_, n0, n1 := testNet(t, AvgDelay, 0)
	n0.Ctl.Meet.ObserveMeeting(2, 100)
	n0.Ctl.Meet.ObserveMeeting(1, 50)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	// pGood's destination (2) is reachable by the peer; pStuck's
	// destination (9) is unknown to everyone.
	pStuck := &packet.Packet{ID: 1, Src: 0, Dst: 9, Size: 100, Created: 0}
	pGood := &packet.Packet{ID: 2, Src: 0, Dst: 2, Size: 100, Created: 5}
	n0.Router.Generate(pStuck, 0)
	n0.Router.Generate(pGood, 5)
	plan := n0.Router.PlanReplication(n1, 10)
	if len(plan) != 2 {
		t.Fatalf("plan size %d want 2 (tail is work-conserving)", len(plan))
	}
	if plan[0].P.ID != 2 || plan[1].P.ID != 1 {
		t.Errorf("order %d,%d want gainful packet first", plan[0].P.ID, plan[1].P.ID)
	}
}

func TestMaxDelayPlanOrdersByExpectedDelay(t *testing.T) {
	_, n0, n1 := testNet(t, MaxDelay, 0)
	n0.Ctl.Meet.ObserveMeeting(2, 100)
	n0.Ctl.Meet.ObserveMeeting(1, 50)
	n0.Ctl.ObserveTransfer(100000)
	pOld := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 100, Created: 0}
	pNew := &packet.Packet{ID: 2, Src: 0, Dst: 2, Size: 100, Created: 90}
	n0.Router.Generate(pOld, 0)
	n0.Router.Generate(pNew, 90)
	plan := n0.Router.PlanReplication(n1, 100)
	if len(plan) != 2 {
		t.Fatalf("plan %v", plan)
	}
	if plan[0].P.ID != 1 {
		t.Errorf("max-delay metric must prioritize the oldest packet, got %d", plan[0].P.ID)
	}
}

func TestEndToEndRapidBeatsNoReplication(t *testing.T) {
	// Sanity: on a random mobility scenario RAPID delivers a solid
	// fraction of packets and respects feasibility.
	model := mobility.Exponential{Config: mobility.Config{
		Nodes: 12, Duration: 900, MeanMeeting: 60, TransferBytes: 20 << 10,
	}}
	sched := model.Schedule(rand.New(rand.NewSource(3)))
	w := packet.Generate(packet.GenConfig{
		Nodes: sched.Nodes(), PacketsPerHourPerDest: 2, LoadWindow: 50,
		Duration: 600, PacketSize: 1 << 10, FirstID: 1,
	}, rand.New(rand.NewSource(4)))
	c := routing.Run(routing.Scenario{
		Schedule: sched, Workload: w, Factory: New(AvgDelay),
		Cfg: routing.Config{
			BufferBytes: 100 << 10, Mode: routing.ControlInBand,
			MetaFraction: -1, DefaultTransferBytes: 20 << 10,
		},
		Seed: 5,
	})
	s := c.Summarize(900)
	if s.DeliveryRate < 0.5 {
		t.Errorf("delivery rate %v too low for a mild load", s.DeliveryRate)
	}
	if s.DataBytes+s.MetaBytes > s.OpportunityBytes {
		t.Error("feasibility violated")
	}
	if s.MetaBytes == 0 {
		t.Error("in-band control channel sent nothing")
	}
	if c.Replications == 0 {
		t.Error("RAPID never replicated")
	}
}

func TestRapidDeterministic(t *testing.T) {
	run := func() float64 {
		sched := (&trace.Schedule{Duration: 300, Meetings: []trace.Meeting{
			{A: 0, B: 1, Time: 10, Bytes: 5000},
			{A: 1, B: 2, Time: 50, Bytes: 5000},
			{A: 0, B: 2, Time: 90, Bytes: 5000},
			{A: 0, B: 1, Time: 130, Bytes: 5000},
			{A: 1, B: 2, Time: 170, Bytes: 5000},
		}})
		w := packet.Workload{
			{ID: 1, Src: 0, Dst: 2, Size: 1000, Created: 0},
			{ID: 2, Src: 2, Dst: 0, Size: 1000, Created: 5},
			{ID: 3, Src: 1, Dst: 0, Size: 1000, Created: 20},
		}
		c := routing.Run(routing.Scenario{
			Schedule: sched, Workload: w, Factory: New(AvgDelay),
			Cfg:  routing.Config{Mode: routing.ControlInBand, MetaFraction: -1},
			Seed: 9,
		})
		s := c.Summarize(300)
		return s.AvgDelay*1e6 + float64(s.Delivered)*10 + float64(s.MetaBytes)
	}
	if run() != run() {
		t.Error("RAPID run is not deterministic")
	}
}

func TestNameIncludesMetric(t *testing.T) {
	for _, m := range []Metric{AvgDelay, Deadline, MaxDelay} {
		f := New(m)
		r := f(0)
		if r.Name() != "rapid/"+m.String() {
			t.Errorf("name %q", r.Name())
		}
	}
	if Metric(99).String() == "" {
		t.Error("unknown metric must stringify")
	}
}

// TestPeerIndexFreshAcrossSameTimeContacts: two distinct contacts
// between the same pair at the same timestamp (duplicate trace rows,
// zero-period contact-plan entries) must not reuse the first contact's
// view of the peer's buffer: each plan prices its replicas from the
// peer's buffer as it stands when that plan is built.
func TestPeerIndexFreshAcrossSameTimeContacts(t *testing.T) {
	_, n0, n1 := testNet(t, AvgDelay, 0)
	now := 50.0
	// n1 can reach destination 2; n0 knows it transitively.
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)

	p := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 400, Created: 10}
	n0.Router.Generate(p, 10)
	r := n0.Router.(*Router)

	// First contact at `now`: the hypothetical replica of p heads n1's
	// empty queue.
	r.PlanReplication(n1, now)
	d1 := r.EstimateReplicaDelay(n0.Store.Get(1), n1, now)

	// Between the two same-time contacts n1's buffer gains an older
	// same-destination packet, so p's replica must now queue behind it.
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{
		ID: 2, Src: 3, Dst: 2, Size: 700, Created: 0,
	}}, nil)

	r.PlanReplication(n1, now) // second contact, same timestamp
	d2 := r.EstimateReplicaDelay(n0.Store.Get(1), n1, now)
	if !(d2 > d1) {
		t.Fatalf("second same-time contact reused a stale view of the peer: delay %v -> %v (want increase)", d1, d2)
	}
}

// TestPeerIndexSnapshotStableWithinSession: within one session the
// per-send EstimateReplicaDelay calls keep pricing from the plan even
// though each accepted replica changes the peer's buffer — the
// announced estimates reflect the peer's just-announced state, not a
// live view.
func TestPeerIndexSnapshotStableWithinSession(t *testing.T) {
	_, n0, n1 := testNet(t, AvgDelay, 0)
	now := 50.0
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)

	p := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 400, Created: 10}
	n0.Router.Generate(p, 10)
	r := n0.Router.(*Router)

	r.PlanReplication(n1, now) // session start: replicas priced here
	d1 := r.EstimateReplicaDelay(n0.Store.Get(1), n1, now)
	// Mid-session accept at the peer (as the session's transfers do).
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{
		ID: 3, Src: 4, Dst: 2, Size: 500, Created: 0,
	}}, nil)
	d2 := r.EstimateReplicaDelay(n0.Store.Get(1), n1, now)
	if d1 != d2 {
		t.Fatalf("within-session estimate drifted off the planning snapshot: %v -> %v", d1, d2)
	}
}

// TestSnapshotReplicaDelaysSurvivesInterleavedContacts: a windowed
// session's pinned snapshot keeps answering from its own plan even
// after an interleaved contact with a different peer replaces the
// router's last plan, and after the original peer's buffer changes
// mid-window.
func TestSnapshotReplicaDelaysSurvivesInterleavedContacts(t *testing.T) {
	net, n0, n1 := testNet(t, AvgDelay, 0)
	n2 := net.Node(2)
	now := 50.0
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.ObserveMeeting(2, 25)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{5: 100})
	n0.Ctl.Meet.MergeTable(2, map[packet.NodeID]float64{5: 100})
	n0.Ctl.ObserveTransfer(1000)

	p := &packet.Packet{ID: 1, Src: 0, Dst: 5, Size: 400, Created: 10}
	n0.Router.Generate(p, 10)
	r := n0.Router.(*Router)

	r.PlanReplication(n1, now)
	snap := r.SnapshotReplicaDelays(n1)
	d1 := snap(n0.Store.Get(1))

	// Mid-window: an overlapping contact plans against another peer,
	// and the first peer's buffer gains an older same-destination
	// packet.
	r.PlanReplication(n2, now)
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{
		ID: 7, Src: 3, Dst: 5, Size: 700, Created: 0,
	}}, nil)

	if d2 := snap(n0.Store.Get(1)); d1 != d2 {
		t.Fatalf("pinned snapshot drifted under interleaved contacts: %v -> %v", d1, d2)
	}
}

// TestPulledPlanPricesAtPlanningTime: a pulled plan prices each
// replica against the peer's buffer as it stood when the plan was
// built, as the slice plan does, even after the peer's store changes
// mid-session.
func TestPulledPlanPricesAtPlanningTime(t *testing.T) {
	_, n0, n1 := testNet(t, AvgDelay, 0)
	now := 50.0
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{ID: 5, Src: 1, Dst: 2, Size: 300, Created: 0}}, nil)
	n0.Router.Generate(&packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 400, Created: 10}, 10)
	r := n0.Router.(*Router)

	r.PlanReplication(n1, now)
	want := r.EstimateReplicaDelay(n0.Store.Get(1), n1, now)
	plan := r.PullReplication(n1, now)
	e := plan.Next(1 << 20)
	if e == nil || e.P.ID != 1 {
		t.Fatalf("pulled %v, want packet 1", e)
	}
	// Mid-session, the peer gains an older same-destination packet.
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{ID: 7, Src: 3, Dst: 2, Size: 700, Created: 0}}, nil)
	if got := plan.ReplicaDelay(e); got != want {
		t.Fatalf("pulled replica delay %v, planning-time estimate %v", got, want)
	}
	if e := plan.Next(1 << 20); e != nil {
		t.Fatalf("plan of one candidate pulled a second: packet %d", e.P.ID)
	}
}

// TestPullReplicationAllocs: once the router's scratch has grown,
// pulling a plan and draining it allocates nothing.
func TestPullReplicationAllocs(t *testing.T) {
	net, n0, n1 := testNet(t, AvgDelay, 0)
	n2 := net.Node(2)
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.ObserveMeeting(2, 40)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)
	for i := range 200 {
		p := &packet.Packet{ID: packet.ID(i + 1), Src: 0, Dst: n2.ID, Size: int64(100 * (1 + i%4)), Created: float64(i % 50)}
		n0.Store.Insert(&buffer.Entry{P: p}, nil)
		if i%3 == 0 {
			n1.Store.Insert(&buffer.Entry{P: p}, nil)
		}
	}
	r := n0.Router.(*Router)
	pull := func() {
		plan := r.PullReplication(n1, 60)
		budget := int64(8000)
		for e := plan.Next(budget); e != nil; e = plan.Next(budget) {
			plan.ReplicaDelay(e)
			budget -= e.P.Size
		}
	}
	pull() // grow the scratch
	if allocs := testing.AllocsPerRun(100, pull); allocs != 0 {
		t.Fatalf("PullReplication and its pulls allocate %v per contact, want 0", allocs)
	}
}

// TestPlanReplicationAllocs: once the router's scratch has grown, a
// slice plan and the pricing of the replicas it sends allocate
// nothing, even though the peer's buffer changes between contacts.
func TestPlanReplicationAllocs(t *testing.T) {
	net, n0, n1 := testNet(t, AvgDelay, 0)
	n2 := net.Node(2)
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.ObserveMeeting(2, 40)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)
	for i := range 200 {
		p := &packet.Packet{ID: packet.ID(i + 1), Src: 0, Dst: n2.ID, Size: int64(100 * (1 + i%4)), Created: float64(i % 50)}
		n0.Store.Insert(&buffer.Entry{P: p}, nil)
		if i%3 == 0 {
			n1.Store.Insert(&buffer.Entry{P: p}, nil)
		}
	}
	r := n0.Router.(*Router)
	extra := &buffer.Entry{P: &packet.Packet{ID: 500, Src: 1, Dst: n2.ID, Size: 300, Created: 7}}
	contact := func() {
		// The peer's buffer differs from the last contact's.
		if !n1.Store.Remove(extra.P.ID) {
			n1.Store.Insert(extra, nil)
		}
		for i, e := range r.PlanReplication(n1, 60) {
			if i%3 != 1 {
				r.EstimateReplicaDelay(e, n1, 60)
			}
		}
	}
	contact() // grow the scratch
	contact()
	if allocs := testing.AllocsPerRun(100, contact); allocs != 0 {
		t.Fatalf("PlanReplication and EstimateReplicaDelay allocate %v per contact, want 0", allocs)
	}
}

// TestReplicaDelayNeedsItsPlan: the slice plan prices only replicas of
// its own candidates at its own peer, looked up in plan order; anything
// else is a caller bug and panics rather than returning a price from
// another plan.
func TestReplicaDelayNeedsItsPlan(t *testing.T) {
	net, n0, n1 := testNet(t, AvgDelay, 0)
	n2 := net.Node(2)
	now := 50.0
	for id := packet.ID(1); id <= 2; id++ {
		n0.Router.Generate(&packet.Packet{ID: id, Src: 0, Dst: 5, Size: 400, Created: float64(id)}, now)
	}
	r := n0.Router.(*Router)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	plan := r.PlanReplication(n1, now)
	mustPanic("a peer the plan was not built for", func() { r.EstimateReplicaDelay(plan[0], n2, now) })
	mustPanic("a snapshot for another peer", func() { r.SnapshotReplicaDelays(n2) })
	r.EstimateReplicaDelay(plan[1], n1, now)
	mustPanic("an entry before the last one priced", func() { r.EstimateReplicaDelay(plan[0], n1, now) })
	r.PlanReplication(n1, now)
	r.PullReplication(n1, now)
	mustPanic("a plan replaced by a pulled one", func() { r.EstimateReplicaDelay(plan[0], n1, now) })
}
