package routing_test

// The cross-protocol invariant harness: every registered protocol arm
// runs over a grid of synthetic and constellation scenarios under
// runtime instrumentation (routing.Hooks), and shared conformance
// invariants are asserted for each — so a new protocol (CGR today,
// whatever comes next) inherits these checks by being added to
// scenario.AllProtos:
//
//   1. no packet is delivered before it was created;
//   2. no packet is counted delivered more than once (physical
//      re-deliveries of stray replicas are legal DTN behavior, but the
//      metrics must register the first delivery only);
//   3. the bytes spent on any transfer opportunity — control plus
//      data, both directions — never exceed its capacity (a point
//      meeting's Bytes, a window's Rate×Duration) — including the
//      bytes burned by transfers the disruption layer loses;
//   4. buffer occupancy never exceeds the node's configured storage
//      (per BufferBytesFor in heterogeneous scenarios);
//   5. under disruption: a transfer the loss model killed never
//      results in a delivery, and no opportunity completes — nor any
//      packet arrives — through a node strictly inside one of its
//      churn down intervals;
//   6. no packet is first delivered before its capacity-free earliest
//      arrival over the schedule the run replays (earliestArrivals).
//      Loss, contact failure and churn only remove opportunities, so
//      the bound holds for every arm under them; jitter can move a
//      contact earlier, so jittered grid points skip this check.
//
// The grid sweeps each disruption model (loss + contact failure,
// churn, window jitter, loss over streamed windows) as its own rows,
// so every protocol arm is certified both pristine and disrupted.

import (
	"fmt"
	"math"
	"testing"

	"rapid/internal/disrupt"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/scenario"
	"rapid/internal/trace"
)

// invariantGrid is the scenario matrix: statistical mobility with
// uniform and heterogeneous storage, and the deterministic
// constellation plans in both point and windowed form — small enough
// that the full protocol sweep stays inside the unit-test budget.
func invariantGrid() []scenario.Scenario {
	synth := scenario.ScheduleSpec{
		Source: scenario.SourceExponential, Nodes: 12, Duration: 300,
		MeanMeeting: 60, TransferBytes: 20 << 10, Alpha: 1, RankSeed: 42,
	}
	power := synth
	power.Source = scenario.SourcePowerLaw
	constel := scenario.ScheduleSpec{
		Source: scenario.SourceConstellation,
		Planes: 2, SatsPerPlane: 3, Ground: 2,
		OrbitPeriod: 120, Duration: 240,
		ISLBytes: 16 << 10, GroundBytes: 32 << 10,
	}
	passes := constel
	passes.PassWindow = 12
	passes.GroundRateBps = 2 << 10
	passes.ISLWindow = 6
	passes.ISLRateBps = 1 << 10

	load := func(nodes int) scenario.WorkloadSpec {
		return scenario.WorkloadSpec{
			Shape: scenario.ShapePoisson, Load: 8, Window: 50,
			PacketBytes: 1 << 10, Deadline: 60,
			NodeCount: nodes, PerPair: true,
		}
	}
	// Tight buffers keep eviction pressure on (invariant 4 must hold
	// under stress, not just abundance).
	tight := scenario.Overrides{BufferBytes: 8 << 10, BufferBytesSet: true}
	hetero := scenario.Overrides{Hetero: scenario.HeteroBuffers{
		Enabled: true, SmallBytes: 4 << 10, LargeBytes: 16 << 10, SmallEvery: 2,
	}}

	return []scenario.Scenario{
		{Family: "inv-exponential", Tag: "inv", Schedule: synth, Workload: load(12), Config: tight},
		{Family: "inv-hetero", Tag: "inv", Schedule: power, Workload: load(12), Config: hetero},
		{Family: "inv-constellation", Tag: "inv", Schedule: constel, Workload: load(2), Config: tight},
		{Family: "inv-passes", Tag: "inv", Schedule: passes, Workload: load(2), Config: tight},
		// Each disruption model gets its own rows: the invariants must
		// survive lost transfers, vanished contacts, churned-down nodes
		// and jittered plans, for every arm.
		{Family: "inv-lossy", Tag: "inv", Schedule: synth, Workload: load(12), Config: tight,
			Disruption: disrupt.Spec{Enabled: true, PLoss: 0.3, PContactFail: 0.2}},
		{Family: "inv-churn", Tag: "inv", Schedule: power, Workload: load(12), Config: hetero,
			Disruption: disrupt.Spec{Enabled: true, ChurnDownMean: 40, ChurnUpMean: 60}},
		{Family: "inv-jitter", Tag: "inv", Schedule: constel, Workload: load(2), Config: tight,
			Disruption: disrupt.Spec{Enabled: true, JitterSec: 15}},
		{Family: "inv-lossy-passes", Tag: "inv", Schedule: passes, Workload: load(2), Config: tight,
			Disruption: disrupt.Spec{Enabled: true, PLoss: 0.25}},
		{Family: "inv-churn-passes", Tag: "inv", Schedule: passes, Workload: load(2), Config: tight,
			Disruption: disrupt.Spec{Enabled: true, ChurnDownMean: 30, ChurnUpMean: 60}},
	}
}

// TestProtocolInvariants sweeps every registered protocol arm over the
// grid and asserts the shared invariants via runtime hooks.
func TestProtocolInvariants(t *testing.T) {
	for _, base := range invariantGrid() {
		for _, proto := range scenario.AllProtos() {
			s := base
			s.Protocol = proto
			s.Metric = scenario.NormalizeMetric(proto, s.Metric)
			t.Run(fmt.Sprintf("%s/%s", s.Family, proto), func(t *testing.T) {
				checkInvariants(t, s)
			})
		}
	}
}

// allowZeroDelivery: plan-ahead CGR under contact jitter legitimately
// delivers nothing — every live contact misses its planned instant, so
// the router withholds custody rather than hedge. The policy arms
// (k-path, bounded multi-copy, admission) plan from the same contact
// graph and inherit the exemption. All other (family, protocol) points
// must deliver traffic.
func allowZeroDelivery(s scenario.Scenario) bool {
	if s.Disruption.JitterSec <= 0 {
		return false
	}
	switch s.Protocol {
	case scenario.ProtoCGR, scenario.ProtoCGRK, scenario.ProtoCGRMulti, scenario.ProtoCGRAdmit:
		return true
	}
	return false
}

func checkInvariants(t *testing.T, s scenario.Scenario) {
	t.Helper()
	rs := s.Materialize()
	if len(rs.Workload) == 0 {
		t.Fatal("scenario generated no traffic — the grid point is vacuous")
	}
	created := make(map[packet.ID]float64, len(rs.Workload))
	for _, p := range rs.Workload {
		created[p.ID] = p.Created
	}
	capFor := rs.Cfg.CapacityFor

	// Re-realize the run's disruption model (pure functions of spec and
	// seed) so the harness can cross-check churn independently.
	var model *disrupt.Model
	if rs.Disrupt.Enabled {
		model = disrupt.New(rs.Disrupt, rs.DisruptSeed)
	}
	var horizon float64
	if rs.Schedule != nil {
		horizon = rs.Schedule.Duration
	} else {
		horizon = rs.Plan.Duration
	}
	strictDown := func(id packet.NodeID, at float64) bool {
		return model != nil && model.Down(id, at, horizon)
	}

	// A transfer the loss model killed is identified by (packet,
	// receiver, instant): a delivery matching all three would mean the
	// runtime committed a transfer it had already declared lost.
	type lostKey struct {
		id packet.ID
		to packet.NodeID
		at float64
	}
	lost := map[lostKey]bool{}
	lostCount := 0

	firstDelivery := make(map[packet.ID]float64)
	rs.Hooks = &routing.Hooks{
		OnDelivered: func(id packet.ID, dst packet.NodeID, now float64) {
			c, ok := created[id]
			if !ok {
				t.Errorf("delivered unknown packet %d — a router invented traffic", id)
				return
			}
			if now < c {
				t.Errorf("packet %d delivered at %v before creation at %v", id, now, c)
			}
			if lost[lostKey{id, dst, now}] {
				t.Errorf("packet %d delivered to %d at %v by a transfer the loss model killed", id, dst, now)
			}
			if strictDown(dst, now) {
				t.Errorf("packet %d delivered to node %d at %v while that node was churned down", id, dst, now)
			}
			if _, again := firstDelivery[id]; !again {
				firstDelivery[id] = now
			}
		},
		OnLost: func(id packet.ID, from, to packet.NodeID, now float64) {
			if _, ok := created[id]; !ok {
				t.Errorf("lost unknown packet %d", id)
			}
			lost[lostKey{id, to, now}] = true
			lostCount++
		},
		OnOpportunityDone: func(a, b packet.NodeID, capacity, spent int64, windowed bool, now float64) {
			kind := "meeting"
			if windowed {
				kind = "window"
			}
			if spent < 0 {
				t.Errorf("%s %d↔%d spent negative bytes %d", kind, a, b, spent)
			}
			if spent > capacity {
				t.Errorf("%s %d↔%d spent %d bytes over its %d-byte capacity", kind, a, b, spent, capacity)
			}
			// No opportunity completes through a node strictly inside a
			// churn down interval: point sessions are skipped outright,
			// and a live window touching a dropping node is cut off at
			// the interval boundary.
			if strictDown(a, now) || strictDown(b, now) {
				t.Errorf("%s %d↔%d completed at %v through a churned-down endpoint", kind, a, b, now)
			}
		},
		AfterEvent: func(net *routing.Network) {
			for id, n := range net.Nodes {
				if capacity := capFor(id); capacity > 0 && n.Store.Used() > capacity {
					t.Fatalf("node %d buffers %d bytes over its %d-byte storage", id, n.Store.Used(), capacity)
				}
			}
		},
	}

	col := routing.Run(rs)
	sum := col.Summarize(horizon)
	if sum.Delivered == 0 && !allowZeroDelivery(s) {
		t.Error("no packet delivered — the grid point exercises nothing")
	}
	if s.Disruption.PLoss > 0 && sum.LostTransfers == 0 {
		t.Error("a lossy grid point lost no transfer — the disruption model is not engaged")
	}
	if sum.LostTransfers != lostCount {
		t.Errorf("summary counts %d lost transfers, runtime observed %d", sum.LostTransfers, lostCount)
	}

	// Invariant 2: the metrics register each packet's first delivery,
	// exactly once, at the hook-observed instant.
	if sum.Delivered != len(firstDelivery) {
		t.Errorf("summary counts %d delivered, runtime observed %d distinct deliveries",
			sum.Delivered, len(firstDelivery))
	}
	for _, r := range col.Records() {
		if !r.Delivered {
			if _, seen := firstDelivery[r.P.ID]; seen {
				t.Errorf("packet %d physically delivered but not recorded", r.P.ID)
			}
			continue
		}
		first, seen := firstDelivery[r.P.ID]
		if !seen {
			t.Errorf("packet %d recorded delivered but never observed by the runtime hook", r.P.ID)
			continue
		}
		if math.Abs(r.DeliveredAt-first) > 1e-9 {
			t.Errorf("packet %d recorded at %v but first delivered at %v — a duplicate delivery overwrote the record",
				r.P.ID, r.DeliveredAt, first)
		}
		if r.DeliveredAt < r.P.Created {
			t.Errorf("packet %d recorded delivered at %v before creation at %v", r.P.ID, r.DeliveredAt, r.P.Created)
		}
	}

	// Invariant 6: the capacity-free earliest arrival is a lower bound
	// on every first delivery. A jittered contact may open before its
	// nominal start, which the bound does not model.
	if s.Disruption.JitterSec <= 0 {
		sched := rs.Schedule
		if sched == nil {
			sched = rs.Plan.Expand()
		}
		lower := earliestArrivals(sched, rs.Workload)
		for i, p := range rs.Workload {
			if at, ok := firstDelivery[p.ID]; ok && at < lower[i] {
				t.Errorf("packet %d delivered at %v, before its capacity-free earliest arrival %v", p.ID, at, lower[i])
			}
		}
	}

	// Aggregate conservation: total moved bytes cannot exceed total
	// offered opportunity.
	if sum.DataBytes+sum.MetaBytes > sum.OpportunityBytes {
		t.Errorf("moved %d data + %d meta bytes over the %d bytes of total opportunity",
			sum.DataBytes, sum.MetaBytes, sum.OpportunityBytes)
	}
}

// earliestArrivals returns each packet's capacity-free earliest
// arrival at its destination (+Inf when unreachable): a scan of the
// schedule's contact graph in start order, each window folded to its
// start. Folding only moves arrivals earlier and ignoring capacity
// only adds paths, so no run of the schedule can deliver earlier.
func earliestArrivals(sched *trace.Schedule, w packet.Workload) []float64 {
	g := trace.NewContactGraph(sched)
	order := g.ByStart()
	n := g.NumNodes()
	for _, p := range w {
		n = max(n, int(p.Src)+1, int(p.Dst)+1)
	}
	arrive := make([]float64, n)
	out := make([]float64, len(w))
	for i, p := range w {
		for v := range arrive {
			arrive[v] = math.Inf(1)
		}
		arrive[p.Src] = p.Created
		for _, ei := range order {
			e := &g.Edges[ei]
			ta, tb := arrive[e.A], arrive[e.B]
			if ta <= e.Start {
				arrive[e.B] = min(arrive[e.B], e.Start)
			}
			if tb <= e.Start {
				arrive[e.A] = min(arrive[e.A], e.Start)
			}
		}
		out[i] = arrive[p.Dst]
	}
	return out
}
