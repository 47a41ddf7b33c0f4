package cgr

// White-box invariants of the policy-aware planner: copy budgets,
// reservation conservation, route/reservation consistency, and the
// behavioral deltas of the three policy arms the black-box suite
// (cgr_test.go) cannot see from the outside.

import (
	"testing"

	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// plannerOf extracts the shared planner from a factory (an extra
// router instance is harmless — routers are thin views).
func plannerOf(f routing.RouterFactory) *Planner {
	return f(0).(*Router).pl
}

// auditPlanner asserts the planner's bookkeeping invariants: residuals
// within [0, cap0]; live untraversed demand covered by each window's
// reserved bytes; per-packet copy count within the policy budget; live
// sibling routes window-disjoint; holder consistent with the executed
// prefix; every buffer reservation tied to a live route at the route's
// committed size.
func auditPlanner(t *testing.T, pl *Planner) {
	t.Helper()
	demand := make([]int64, len(pl.residual))
	live := map[*route]packet.ID{}
	for id, rs := range pl.routes {
		if len(rs) > pl.pol.Copies {
			t.Errorf("packet %d holds %d routes over the %d-copy budget", id, len(rs), pl.pol.Copies)
		}
		winsSeen := map[int]bool{}
		for _, r := range rs {
			live[r] = id
			if r.size <= 0 {
				t.Errorf("packet %d: live route committed at size %d", id, r.size)
			}
			if r.next > 0 {
				if r.holder != r.hops[r.next-1].to {
					t.Errorf("packet %d: holder %d disagrees with executed prefix ending at %d",
						id, r.holder, r.hops[r.next-1].to)
				}
			} else if r.holder != r.hops[0].from {
				t.Errorf("packet %d: unexecuted route held at %d, planned from %d",
					id, r.holder, r.hops[0].from)
			}
			for i := r.next; i < len(r.hops); i++ {
				demand[r.hops[i].win] += r.size
			}
			for _, h := range r.hops {
				if winsSeen[h.win] {
					t.Errorf("packet %d: two live routes share window %d — copies must be capacity-disjoint", id, h.win)
				}
				winsSeen[h.win] = true
			}
		}
	}
	for i, res := range pl.residual {
		c := pl.g.Edges[i].Cap
		if res < 0 || res > c {
			t.Errorf("window %d residual %d outside [0, %d]", i, res, c)
		}
		if demand[i] > c-res {
			t.Errorf("window %d: %d bytes of live untraversed demand exceed the %d bytes reserved",
				i, demand[i], c-res)
		}
	}
	for node, list := range pl.resv {
		for _, rv := range list {
			id, ok := live[rv.rt]
			if !ok {
				t.Errorf("node %d holds a reservation of packet %d for a dead route", node, rv.id)
				continue
			}
			if id != rv.id {
				t.Errorf("node %d: reservation of packet %d tied to packet %d's route", node, rv.id, id)
			}
			if rv.bytes != rv.rt.size {
				t.Errorf("node %d: reservation bytes %d != route size %d", node, rv.bytes, rv.rt.size)
			}
		}
	}
}

// handPlanner builds a primed planner over the contact graph of
// explicit point meetings with unlimited buffers, bypassing the runtime
// (pure planner unit tests).
func handPlanner(pol Policy, meetings []trace.Meeting) *Planner {
	pl := newPlanner(pol)
	pl.primed = true
	pl.index(trace.NewContactGraph(&trace.Schedule{Meetings: meetings}), 0, func(packet.NodeID) int64 { return 0 })
	return pl
}

// reservedNodes counts the nodes holding any planned buffer
// reservation (zero: no reservation leaked).
func reservedNodes(pl *Planner) int {
	n := 0
	for _, list := range pl.resv {
		if len(list) > 0 {
			n++
		}
	}
	return n
}

// TestReservationConservation: commit → release restores every residual
// exactly; after one hop executes, release refunds only the untraversed
// remainder.
func TestReservationConservation(t *testing.T) {
	meetings := []trace.Meeting{
		{A: 0, B: 1, Time: 10, Bytes: 4096},
		{A: 1, B: 2, Time: 20, Bytes: 4096},
	}
	pl := handPlanner(DefaultPolicy(), meetings)
	p := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 1000}

	r := pl.plan(p, 0, 0, rankGenerated, nil)
	if r == nil || len(r.hops) != 2 {
		t.Fatalf("plan: got %+v, want a 2-hop route", r)
	}
	pl.commit(p, r, 0)
	if pl.residual[0] != 3096 || pl.residual[1] != 3096 {
		t.Fatalf("residuals after commit: %d, %d, want 3096, 3096",
			pl.residual[0], pl.residual[1])
	}
	if len(pl.resv[1]) != 1 {
		t.Fatalf("relay 1 reservations: %d, want 1", len(pl.resv[1]))
	}
	auditPlanner(t, pl)

	pl.release(p.ID)
	if pl.residual[0] != 4096 || pl.residual[1] != 4096 {
		t.Fatalf("release must refund both hops exactly: %d, %d",
			pl.residual[0], pl.residual[1])
	}
	if reservedNodes(pl) != 0 || len(pl.routes) != 0 {
		t.Fatalf("release leaked state: %d resv nodes, %d routed packets", reservedNodes(pl), len(pl.routes))
	}

	// Re-plan, execute the first hop, then release: only the second
	// hop's reservation comes back — the first window's bytes are spent.
	r = pl.plan(p, 0, 0, rankGenerated, nil)
	pl.commit(p, r, 0)
	pl.transferred(p.ID, 0, 1)
	if got := pl.routes[p.ID][0]; got.next != 1 || got.holder != 1 {
		t.Fatalf("transfer bookkeeping: next=%d holder=%d, want 1, 1", got.next, got.holder)
	}
	auditPlanner(t, pl)
	pl.release(p.ID)
	if pl.residual[0] != 3096 {
		t.Fatalf("window 0 residual %d, want 3096 (executed hop is spent for good)", pl.residual[0])
	}
	if pl.residual[1] != 4096 {
		t.Fatalf("window 1 residual %d, want 4096 (untraversed hop refunded)", pl.residual[1])
	}
}

// TestMultiCopyDisjointSpread: a three-relay diamond under a 3-copy
// budget commits three window- and relay-disjoint routes, keeps every
// planner invariant through the run, and sweeps all state at delivery.
func TestMultiCopyDisjointSpread(t *testing.T) {
	sched := &trace.Schedule{Duration: 100}
	sched.Meetings = []trace.Meeting{
		{A: 0, B: 1, Time: 10, Bytes: 10 << 10},
		{A: 0, B: 2, Time: 11, Bytes: 10 << 10},
		{A: 0, B: 3, Time: 12, Bytes: 10 << 10},
		{A: 1, B: 4, Time: 20, Bytes: 10 << 10},
		{A: 2, B: 4, Time: 21, Bytes: 10 << 10},
		{A: 3, B: 4, Time: 22, Bytes: 10 << 10},
	}
	f := NewPolicy(Policy{Copies: 3})
	pl := plannerOf(f)
	w := packet.Workload{{ID: 1, Src: 0, Dst: 4, Size: 1024, Created: 0}}
	spreadChecked := false
	sc := routing.Scenario{
		Schedule: sched, Workload: w, Factory: f, Cfg: routing.Config{}, Seed: 1,
		Hooks: &routing.Hooks{AfterEvent: func(*routing.Network) {
			auditPlanner(t, pl)
			if rs := pl.routes[1]; len(rs) == 3 {
				spreadChecked = true
			}
		}},
	}
	col := routing.Run(sc)
	if !col.IsDelivered(1) {
		t.Fatal("packet not delivered")
	}
	if !spreadChecked {
		t.Error("the 3-copy budget never spread to 3 routes on a 3-way disjoint diamond")
	}
	if got := col.Records()[0].DeliveredAt; got != 20 {
		t.Fatalf("delivered at %v, want 20 (earliest replica)", got)
	}
	if col.Replications != 3 {
		t.Fatalf("replications %d, want 3 (one per disjoint relay)", col.Replications)
	}
	// Delivery sweeps the packet everywhere: no live routes, no
	// reservations, no stray replicas left to re-deliver.
	if len(pl.routes) != 0 || reservedNodes(pl) != 0 {
		t.Fatalf("delivery left %d routed packets, %d reservation nodes", len(pl.routes), reservedNodes(pl))
	}
	if col.Summarize(100).Delivered != 1 {
		t.Fatal("stray replica re-delivered after the sweep")
	}
}

// TestKPathWidestWithinSlack: the narrow path arrives at 20, the wide
// one at 24. Classic CGR takes earliest arrival; the k-path policy
// (slack 0.5 → limit 30) must trade 4 seconds for the 10× wider
// bottleneck.
func TestKPathWidestWithinSlack(t *testing.T) {
	mk := func() *trace.Schedule {
		s := &trace.Schedule{Duration: 100}
		s.Meetings = []trace.Meeting{
			{A: 0, B: 1, Time: 10, Bytes: 1024}, // narrow fast chain
			{A: 1, B: 3, Time: 20, Bytes: 1024},
			{A: 0, B: 2, Time: 12, Bytes: 10 << 10}, // wide slow chain
			{A: 2, B: 3, Time: 24, Bytes: 10 << 10},
		}
		return s
	}
	w := packet.Workload{{ID: 1, Src: 0, Dst: 3, Size: 1024, Created: 0}}

	classic := routing.Run(routing.Scenario{
		Schedule: mk(), Workload: w, Factory: New(), Cfg: routing.Config{}, Seed: 1,
	})
	if got := classic.Records()[0].DeliveredAt; got != 20 {
		t.Fatalf("classic CGR delivered at %v, want 20 (earliest arrival)", got)
	}

	kpath := routing.Run(routing.Scenario{
		Schedule: mk(), Workload: w,
		Factory: NewPolicy(Policy{KPaths: 4, DelaySlack: 0.5, Copies: 1}),
		Cfg:     routing.Config{}, Seed: 1,
	})
	if got := kpath.Records()[0].DeliveredAt; got != 24 {
		t.Fatalf("k-path CGR delivered at %v, want 24 (widest within slack)", got)
	}
}

// TestAdmissionThrottlesInjection: five 1 KB packets contend for a
// single 2 KB access window to the destination. Classic CGR stores all
// five and delivers until capacity runs out; the admission arm refuses
// at the source once the outstanding bytes reach the destination's
// residual-capacity quota.
func TestAdmissionThrottlesInjection(t *testing.T) {
	mk := func() *trace.Schedule {
		s := &trace.Schedule{Duration: 100}
		s.Meetings = []trace.Meeting{{A: 0, B: 2, Time: 10, Bytes: 2048}}
		return s
	}
	var w packet.Workload
	for i := int64(1); i <= 5; i++ {
		w = append(w, &packet.Packet{ID: packet.ID(i), Src: 0, Dst: 2, Size: 1024, Created: 0})
	}

	classic := routing.Run(routing.Scenario{
		Schedule: mk(), Workload: w, Factory: New(), Cfg: routing.Config{}, Seed: 1,
	}).Summarize(100)
	if classic.Delivered != 2 {
		t.Fatalf("classic CGR delivered %d, want 2 (window capacity)", classic.Delivered)
	}

	f := NewPolicy(Policy{KPaths: 1, Copies: 1, AdmitFraction: 1})
	pl := plannerOf(f)
	admit := routing.Run(routing.Scenario{
		Schedule: mk(), Workload: w, Factory: f, Cfg: routing.Config{}, Seed: 1,
	}).Summarize(100)
	if admit.Delivered < 1 || admit.Delivered > 2 {
		t.Fatalf("admission arm delivered %d, want 1..2", admit.Delivered)
	}
	// The quota must have refused at least the packets that could never
	// fit: no more than 2 were ever admitted to the ledger.
	if n := len(pl.admDst); n > admit.Delivered {
		t.Fatalf("%d packets still in the admission ledger after %d deliveries", n, admit.Delivered)
	}
}

// TestNotSessionConfined guards the parallel-engine contract: every
// CGR router of a run shares one planner, so the arm must never be
// marked SessionConfined (the serial engine is a correctness
// requirement, not a performance accident).
func TestNotSessionConfined(t *testing.T) {
	var r routing.Router = &Router{}
	if _, ok := r.(routing.SessionConfined); ok {
		t.Fatal("cgr.Router must not implement routing.SessionConfined: all routers of a run share one planner")
	}
}
