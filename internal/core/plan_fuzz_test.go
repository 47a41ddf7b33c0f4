package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/sim"
)

// planStream feeds fuzz input to the scenario generator; an exhausted
// stream yields zeros.
type planStream []byte

// intn returns the next input byte reduced mod n (0 for n <= 1).
func (s *planStream) intn(n int) int {
	if n <= 1 || len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// planSizes and planDelays are the packet sizes and remote replica
// estimates the fuzzer draws from: zero and +Inf estimates take the
// delivered and unreachable branches of the utilities.
var (
	planSizes  = []int64{100, 250, 400, 1000, 1300}
	planDelays = []float64{0, 15, 40, 90, 300, math.Inf(1)}
)

// refPlanWalk is the reference for Inventory and PlanReplication: it
// iterates the store's entries in its internal order, takes b(i) from a
// fresh index of the own store and the peer position from a fresh index
// of the peer's store, prices each packet with the estimator's
// per-packet methods (refCandidate), and sorts with the plan order.
func refPlanWalk(r *Router, peer *routing.Node, now float64) ([]control.InventoryItem, []repCand) {
	own, peerIdx := NewQueueIndex(r.node.Store), NewQueueIndex(peer.Store)
	cap := delayCap(r.node.Net.Horizon)
	var inv []control.InventoryItem
	var cands []repCand
	for _, e := range r.node.Store.Entries() {
		inv = append(inv, control.InventoryItem{
			ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
			Created: e.P.Created, Deadline: e.P.Deadline,
			Delay: r.est.SelfDelay(e.P, own.BytesAhead(e.P)),
			Hops:  e.Hops,
		})
		if e.P.Dst != peer.ID {
			cands = append(cands, refCandidate(r, peer, e, own.BytesAhead(e.P), peerIdx.HypoBytesAhead(e.P), now, cap))
		}
	}
	slices.SortFunc(cands, planOrder)
	return inv, cands
}

// refCandidate prices replicating e to peer one packet at a time, every
// estimate term read afresh, with b(i) = ahead here and peerAhead at
// the peer.
func refCandidate(r *Router, peer *routing.Node, e *buffer.Entry, ahead, peerAhead int64, now, cap float64) repCand {
	dY := r.est.PeerDelay(peer, peerAhead, e.P)
	var key float64
	switch r.metric {
	case MaxDelay:
		if !math.IsInf(dY, 1) {
			key = capDelay(r.est.ExpectedDelay(e.P, ahead, now), cap)
		}
	case Deadline:
		rate, delivered := r.est.RateSum(e.P, ahead)
		key = marginalDeadline(rate, delivered, dY, e.P, now) / float64(e.P.Size)
	default:
		rate, delivered := r.est.RateSum(e.P, ahead)
		key = marginalAvgDelay(rate, delivered, dY, cap) / float64(e.P.Size)
	}
	return repCand{e: e, key: key, tail: key <= 0, peerAhead: peerAhead}
}

// refPull applies a point session's skip rule to the sorted plan: it
// walks the plan in order and takes each candidate that fits the
// budget, which then drops by the candidate's size unless rejected
// says the session found the k-th taken candidate no longer movable.
func refPull(plan []repCand, budget int64, rejected func(k int) bool) []repCand {
	var out []repCand
	for _, c := range plan {
		if c.e.P.Size > budget {
			continue
		}
		if !rejected(len(out)) {
			budget -= c.e.P.Size
		}
		out = append(out, c)
	}
	return out
}

// pullBudgets are the opening budgets the pulled plan is checked under:
// none, below every size, between the sizes, and past the whole plan.
// Walking a plan that mixes sizes, a budget that no longer fits one
// candidate still takes a later, smaller one, and it runs out inside
// runs of equal keys: tail candidates created at one instant, or
// queue neighbours whose positions round to the same number of
// meetings.
var pullBudgets = []int64{0, 99, 100, 349, 400, 999, 1000, 1350, 2599, 5000, 1 << 40}

// rejectPatterns say which taken candidates a session finds no longer
// movable (their bytes are not charged): none, every third, all.
var rejectPatterns = []func(k int) bool{
	func(int) bool { return false },
	func(k int) bool { return k%3 == 1 },
	func(int) bool { return true },
}

// FuzzPlanWalk builds random own and peer buffers (creation-time ties,
// mixed sizes, packets held by both stores, packets destined to the
// peer, destinations past the end of the peer's buffer), random meeting
// tables, transfer averages, remote replica estimates and acks, under
// each of the three metrics, and checks the single-walk Inventory,
// PlanReplication and PullReplication against refPlanWalk after every
// change: the plan entry by entry, the inventory as a map from packet
// ID to item with delays compared by their bits, the slice plan's
// replica prices (checkSlicePricing), and the pulled plan under every
// opening budget and reject pattern against refPull.
func FuzzPlanWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x02\x05\x00\x01\x03\x00\x02\x01\x00\x01\x02\x03\x01\x07\x05\x02\x01\x00\x06\x02\x03\x04\x01\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		planWalk(data, func(op int, r *Router, peer *routing.Node, now float64) {
			checkPlanWalk(t, op, r, peer, now)
		})
	})
}

// planWalk decodes data into a sequence of changes to a planning node
// and its peer, calling check after each.
func planWalk(data []byte, check func(op int, r *Router, peer *routing.Node, now float64)) {
	in := planStream(data)
	metric := Metric(in.intn(3))
	const nodes = 8 // node 0 plans, node 1 is the peer
	ids := make([]packet.NodeID, nodes)
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	net := routing.NewNetwork(sim.New(1), ids, New(metric), routing.Config{
		Mode: routing.ControlInBand, MetaFraction: -1, DefaultTransferBytes: 1000,
	})
	net.Horizon = 5000
	n0, peer := net.Node(0), net.Node(1)
	r := n0.Router.(*Router)
	// The peer's index covers destinations up to peerMax only, so
	// own packets to higher destinations fall past its end.
	peerMax := 1 + in.intn(nodes-1)
	now := 60.0
	var pkts []*packet.Packet
	next := packet.ID(1)
	fresh := func() *packet.Packet {
		p := &packet.Packet{
			ID: next, Src: 0, Dst: packet.NodeID(1 + in.intn(nodes-1)),
			Size: planSizes[in.intn(len(planSizes))], Created: float64(5 * in.intn(6)),
		}
		if in.intn(2) == 0 {
			p.Deadline = p.Created + float64(20*in.intn(8))
		}
		next++
		pkts = append(pkts, p)
		return p
	}
	for op := 0; op < 64 && len(in) > 0; op++ {
		switch in.intn(9) {
		case 0, 1: // a fresh packet at this node
			n0.Store.Insert(&buffer.Entry{P: fresh(), Hops: in.intn(3)}, nil)
		case 2: // a fresh packet at the peer, within its index range
			p := fresh()
			p.Dst = packet.NodeID(1 + in.intn(peerMax))
			peer.Store.Insert(&buffer.Entry{P: p}, nil)
		case 3: // a packet both stores hold
			if len(pkts) > 0 {
				p := pkts[in.intn(len(pkts))]
				n0.Store.Insert(&buffer.Entry{P: p}, nil)
				peer.Store.Insert(&buffer.Entry{P: p}, nil)
			}
		case 4: // drop a packet from one store
			if len(pkts) > 0 {
				id := pkts[in.intn(len(pkts))].ID
				if in.intn(2) == 0 {
					n0.Store.Remove(id)
				} else {
					peer.Store.Remove(id)
				}
			}
		case 5: // a remote replica estimate or an ack
			if len(pkts) > 0 {
				p := pkts[in.intn(len(pkts))]
				if in.intn(5) == 0 {
					n0.Ctl.LearnAck(p.ID, now)
					break
				}
				n0.Ctl.NoteReplica(control.InventoryItem{
					ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created,
					Deadline: p.Deadline, Delay: planDelays[in.intn(len(planDelays))],
				}, packet.NodeID(2+in.intn(nodes-2)), now)
			}
		case 6: // meeting tables: this node's own row, or the peer's
			d := packet.NodeID(1 + in.intn(nodes-1))
			gap := float64(10 * (1 + in.intn(20)))
			if in.intn(2) == 0 {
				n0.Ctl.Meet.ObserveMeeting(d, gap)
			} else if d != 1 {
				n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{d: gap})
			}
		case 7: // transfer averages, own and announced by the peer
			n0.Ctl.ObserveTransfer(int64(200 * (1 + in.intn(10))))
			if in.intn(2) == 0 {
				peer.Ctl.ObserveTransfer(int64(200 * (1 + in.intn(10))))
				control.Exchange(n0.Ctl, peer.Ctl, nil, nil, now, control.Options{MaxBytes: -1})
			}
		case 8: // time passes
			now += float64(5 * in.intn(8))
		}
		check(op, r, peer, now)
	}
}

// checkPlanWalk compares Inventory and PlanReplication with refPlanWalk.
func checkPlanWalk(t *testing.T, op int, r *Router, peer *routing.Node, now float64) {
	t.Helper()
	wantInv, wantPlan := refPlanWalk(r, peer, now)
	gotInv := r.Inventory(now)
	if len(gotInv) != len(wantInv) {
		t.Fatalf("op %d: inventory of %d items, reference %d", op, len(gotInv), len(wantInv))
	}
	byID := make(map[packet.ID]control.InventoryItem, len(wantInv))
	for _, it := range wantInv {
		byID[it.ID] = it
	}
	for _, it := range gotInv {
		w, ok := byID[it.ID]
		if !ok {
			t.Fatalf("op %d: inventory lists %d twice or spuriously", op, it.ID)
		}
		delete(byID, it.ID)
		gd, wd := it.Delay, w.Delay
		it.Delay, w.Delay = 0, 0
		if it != w || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("op %d: inventory item %+v (delay %v), reference %+v (delay %v)", op, it, gd, w, wd)
		}
	}
	gotPlan := r.PlanReplication(peer, now)
	if len(gotPlan) != len(wantPlan) {
		t.Fatalf("op %d: plan of %d entries, reference %d", op, len(gotPlan), len(wantPlan))
	}
	for i := range wantPlan {
		if gotPlan[i] != wantPlan[i].e {
			t.Fatalf("op %d: plan entry %d is packet %d, reference %d", op, i, gotPlan[i].P.ID, wantPlan[i].e.P.ID)
		}
	}
	checkSlicePricing(t, op, r, peer, now, wantPlan)
	for _, budget := range pullBudgets {
		for pi, rejected := range rejectPatterns {
			checkPull(t, fmt.Sprintf("op %d budget %d rejects %d", op, budget, pi), r, peer, now, wantPlan, budget, rejected)
		}
	}
}

// checkSlicePricing prices replicas off the slice plan PlanReplication
// just built, as sessions and windows do, and compares each price with
// PeerDelay at the peer's HypoBytesAhead, bit for bit. A session calls
// EstimateReplicaDelay for a random subsequence of the plan, in plan
// order. A window's SnapshotReplicaDelays closure, taken at planning
// time, prices another subsequence after the node has planned for
// another peer (node 2).
func checkSlicePricing(t *testing.T, op int, r *Router, peer *routing.Node, now float64, plan []repCand) {
	t.Helper()
	peerIdx := NewQueueIndex(peer.Store)
	rng := rand.New(rand.NewPCG(uint64(op), uint64(len(plan))))
	check := func(how string, e *buffer.Entry, got float64) {
		t.Helper()
		ref := r.est.PeerDelay(peer, peerIdx.HypoBytesAhead(e.P), e.P)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("op %d: %s prices packet %d's replica at %v, reference %v", op, how, e.P.ID, got, ref)
		}
	}
	snap := r.SnapshotReplicaDelays(peer)
	for _, c := range plan {
		if rng.IntN(2) == 0 {
			check("EstimateReplicaDelay", c.e, r.EstimateReplicaDelay(c.e, peer, now))
		}
	}
	r.PlanReplication(r.node.Net.Node(2), now)
	for _, c := range plan {
		if rng.IntN(2) == 0 {
			check("a snapshot", c.e, snap(c.e))
		}
	}
}

// checkPull drains a pulled plan the way a point session does and
// compares it with refPull: the same candidates in the same order, each
// carrying the peer's HypoBytesAhead and pricing its replica as
// PeerDelay does at that position, bit for bit.
func checkPull(t *testing.T, at string, r *Router, peer *routing.Node, now float64, plan []repCand, budget int64, rejected func(k int) bool) {
	t.Helper()
	want := refPull(plan, budget, rejected)
	peerIdx := NewQueueIndex(peer.Store)
	p := r.PullReplication(peer, now)
	for k := 0; ; k++ {
		e := p.Next(budget)
		if e == nil {
			if k != len(want) {
				t.Fatalf("%s: pulled %d candidates, reference %d", at, k, len(want))
			}
			return
		}
		if k >= len(want) {
			t.Fatalf("%s: pull %d is packet %d, past the reference's %d", at, k, e.P.ID, len(want))
		}
		if e != want[k].e {
			t.Fatalf("%s: pull %d is packet %d, reference %d", at, k, e.P.ID, want[k].e.P.ID)
		}
		carried := r.pulled.last.peerAhead
		if hypo := peerIdx.HypoBytesAhead(e.P); carried != hypo {
			t.Fatalf("%s: pull %d (packet %d) carries %d bytes ahead at the peer, index says %d", at, k, e.P.ID, carried, hypo)
		}
		got, ref := p.ReplicaDelay(e), r.est.PeerDelay(peer, peerIdx.HypoBytesAhead(e.P), e.P)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s: pull %d (packet %d) replica delay %v, reference %v", at, k, e.P.ID, got, ref)
		}
		if !rejected(k) {
			budget -= e.P.Size
		}
	}
}

// TestPlanOrderStrict: every key tie in the plan order — NaN keys
// included — falls to the packet ID, so sorting any permutation of the
// candidates yields one plan.
func TestPlanOrderStrict(t *testing.T) {
	mk := func(id packet.ID, created, key float64) repCand {
		return repCand{e: &buffer.Entry{P: &packet.Packet{ID: id, Created: created}}, key: key, tail: key <= 0}
	}
	nan := math.NaN()
	cands := []repCand{
		mk(5, 1, nan), mk(2, 3, nan), mk(9, 0, 0.5), mk(4, 2, 0.5), mk(7, 2, 2),
		mk(1, 4, 0), mk(8, 4, 0), mk(3, 1, -1), mk(6, 0, nan),
	}
	want := slices.Clone(cands)
	slices.SortFunc(want, planOrder)
	for rot := range cands {
		for _, rev := range []bool{false, true} {
			got := append(slices.Clone(cands[rot:]), cands[:rot]...)
			if rev {
				slices.Reverse(got)
			}
			slices.SortFunc(got, planOrder)
			for i := range want {
				if got[i].e != want[i].e {
					t.Fatalf("rotation %d reversed %v: position %d is packet %d, want %d", rot, rev, i, got[i].e.P.ID, want[i].e.P.ID)
				}
			}
		}
	}
}
