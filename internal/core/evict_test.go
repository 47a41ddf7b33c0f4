package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
)

// saturated returns node 0's RAPID router on a store holding exactly
// `entries` 1 KB replicas to eight reachable destinations, plus a
// source of fresh 1 KB replicas (each Accept of one evicts one entry).
func saturated(t *testing.T, entries int) (*Router, func() *buffer.Entry) {
	const size = 1 << 10
	_, n0, _ := testNet(t, AvgDelay, int64(entries)*size)
	for d := packet.NodeID(3); d < 11; d++ {
		n0.Ctl.Meet.ObserveMeeting(d, float64(50+10*d))
	}
	n0.Ctl.ObserveTransfer(4 * size)
	r := n0.Router.(*Router)
	next := packet.ID(1)
	fresh := func() *buffer.Entry {
		p := &packet.Packet{ID: next, Src: 1, Dst: 3 + packet.NodeID(next%8), Size: size, Created: float64(next)}
		next++
		return &buffer.Entry{P: p}
	}
	for i := 0; i < entries; i++ {
		if !r.Accept(fresh(), 1, 0) {
			t.Fatal("fill rejected")
		}
	}
	return r, fresh
}

// TestSaturatedAcceptAllocs: once the store's eviction scratch has
// grown, a saturated Accept (insert plus utility-ranked eviction, which
// scores every unprotected entry in one walk of the destination queues)
// allocates a constant, small number of objects whatever the buffer
// population.
func TestSaturatedAcceptAllocs(t *testing.T) {
	measure := func(entries int) float64 {
		r, fresh := saturated(t, entries)
		const runs = 200
		pool := make([]*buffer.Entry, 2*runs+2)
		for i := range pool {
			pool[i] = fresh()
		}
		// Warm the store's slices past their growth phase.
		for _, e := range pool[:runs] {
			r.Accept(e, 1, 1e4)
		}
		i := runs
		return testing.AllocsPerRun(runs, func() {
			if !r.Accept(pool[i], 1, 1e4) {
				t.Fatal("saturated accept rejected")
			}
			i++
		})
	}
	small, large := measure(100), measure(1000)
	t.Logf("allocs per saturated Accept: %v at 100 entries, %v at 1000", small, large)
	if small > 2 {
		t.Errorf("saturated Accept at 100 entries: %v allocs, want <= 2", small)
	}
	if small != large {
		t.Errorf("saturated Accept allocs grow with the buffer: %v at 100 entries, %v at 1000", small, large)
	}
}

// TestEvictionScoresPreInsertSnapshot is a differential test of the
// single-walk eviction: with mixed packet sizes one insert evicts
// several victims, and they must be exactly those a reference picks by
// scoring every unprotected entry with its bytes ahead from a fresh
// index of the pre-insert store (utilities are pure with respect to the
// store, so the victims are the lowest-utility prefix that frees enough
// room).
func TestEvictionScoresPreInsertSnapshot(t *testing.T) {
	for _, metric := range []Metric{AvgDelay, Deadline, MaxDelay} {
		for seed := int64(1); seed <= 40; seed++ {
			checkEvictionSnapshot(t, metric, seed)
		}
	}
}

func checkEvictionSnapshot(t *testing.T, metric Metric, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const capacity = 40 << 10
	net, n0, _ := testNet(t, metric, capacity)
	r := n0.Router.(*Router)
	for d := packet.NodeID(3); d < 8; d++ {
		n0.Ctl.Meet.ObserveMeeting(d, 20+rng.Float64()*200)
	}
	n0.Ctl.ObserveTransfer(3000)
	now := 500.0
	id := packet.ID(1)
	mk := func(maxSize int) *buffer.Entry {
		p := &packet.Packet{
			ID: id, Src: 1, Dst: packet.NodeID(3 + rng.Intn(5)),
			Size: int64(200 + rng.Intn(maxSize)), Created: float64(rng.Intn(400)),
		}
		p.Deadline = p.Created + 50 + float64(rng.Intn(400))
		id++
		if rng.Intn(3) == 0 {
			// Remote replicas move the replica-rate term of the utility.
			n0.Ctl.NoteReplica(control.InventoryItem{
				ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created,
				Deadline: p.Deadline, Delay: 10 + rng.Float64()*500,
			}, 2, now)
		}
		return &buffer.Entry{P: p, Own: rng.Intn(8) == 0}
	}
	for n0.Store.Used() < capacity-5000 {
		r.Accept(mk(3000), 1, now)
	}
	// An inventory, then a further insert: eviction must read nothing
	// either leaves behind.
	r.Inventory(now)
	r.Accept(mk(800), 1, now)

	in := mk(1)
	in.P.Size = 9000
	in.Own = false
	ref := NewQueueIndex(n0.Store)
	cap := delayCap(net.Horizon)
	var cands []*buffer.Entry
	util := map[packet.ID]float64{}
	for _, e := range n0.Store.Entries() {
		if !e.Own {
			cands = append(cands, e)
			util[e.P.ID] = evictionUtility(metric, r.est, ref.BytesAhead(e.P), e, now, cap)
		}
	}
	slices.SortFunc(cands, func(a, b *buffer.Entry) int {
		if c := cmp.Compare(util[a.P.ID], util[b.P.ID]); c != 0 {
			return c
		}
		return cmp.Compare(a.P.ID, b.P.ID)
	})
	var want []packet.ID
	free := capacity - n0.Store.Used()
	for _, e := range cands {
		if free >= in.P.Size {
			break
		}
		want = append(want, e.P.ID)
		free += e.P.Size
	}
	if len(want) < 2 {
		t.Fatalf("%v seed %d: insert evicts %d victims, want several", metric, seed, len(want))
	}
	before := slices.Clone(n0.Store.Entries())

	if !r.Accept(in, 1, now) {
		t.Fatalf("%v seed %d: insert rejected", metric, seed)
	}
	var got []packet.ID
	for _, e := range before {
		if !n0.Store.Has(e.P.ID) {
			got = append(got, e.P.ID)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%v seed %d: evicted %v, pre-insert reference %v", metric, seed, got, want)
	}
	// After the insert the inventory prices the live store.
	fresh := NewQueueIndex(n0.Store)
	for _, it := range r.Inventory(now) {
		e := n0.Store.Get(it.ID)
		if want := r.est.SelfDelay(e.P, fresh.BytesAhead(e.P)); it.Delay != want {
			t.Fatalf("%v seed %d: inventory delay of %d is %v, fresh index gives %v", metric, seed, it.ID, it.Delay, want)
		}
	}
}

// TestSameTimeContactSeesAcceptedReplica: a replica the peer accepted
// during a first contact (evicting under saturation, so the peer's own
// index goes stale) is visible to a second contact with the
// same peer at the same timestamp, and the peer's own estimates track
// its live buffer.
func TestSameTimeContactSeesAcceptedReplica(t *testing.T) {
	_, n0, n1 := testNet(t, AvgDelay, 4000)
	now := 50.0
	n0.Ctl.Meet.ObserveMeeting(1, 25)
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 100})
	n0.Ctl.ObserveTransfer(1000)
	n1.Ctl.Meet.ObserveMeeting(2, 100)
	r0 := n0.Router.(*Router)
	r1 := n1.Router.(*Router)

	// n1 is full of younger replicas to the same destination.
	for i := packet.ID(10); i < 14; i++ {
		r1.Accept(&buffer.Entry{P: &packet.Packet{ID: i, Src: 0, Dst: 2, Size: 1000, Created: 40}}, 0, now)
	}
	r1.Inventory(now)

	p := &packet.Packet{ID: 1, Src: 0, Dst: 2, Size: 1000, Created: 10}
	q := &packet.Packet{ID: 2, Src: 0, Dst: 2, Size: 1000, Created: 20}
	n0.Router.Generate(p, 10)
	n0.Router.Generate(q, 20)

	// First contact: plan, then push p; n1 evicts to make room.
	r0.PlanReplication(n1, now)
	d1 := r0.EstimateReplicaDelay(n0.Store.Get(q.ID), n1, now)
	if !n1.Router.Accept(&buffer.Entry{P: p, Hops: 1}, 0, now) {
		t.Fatal("peer rejected replica")
	}

	// Second contact, same timestamp: p now queues ahead of q at n1.
	r0.PlanReplication(n1, now)
	d2 := r0.EstimateReplicaDelay(n0.Store.Get(q.ID), n1, now)
	if want := r0.est.PeerDelay(n1, NewQueueIndex(n1.Store).HypoBytesAhead(q), q); d2 != want {
		t.Fatalf("second contact estimate %v, fresh peer index %v", d2, want)
	}
	if !(d2 > d1) {
		t.Fatalf("second same-time contact missed the accepted replica: delay %v -> %v", d1, d2)
	}
	fresh := NewQueueIndex(n1.Store)
	for _, it := range r1.Inventory(now) {
		e := n1.Store.Get(it.ID)
		if want := r1.est.SelfDelay(e.P, fresh.BytesAhead(e.P)); it.Delay != want {
			t.Fatalf("peer inventory delay of %d is %v, fresh index gives %v", it.ID, it.Delay, want)
		}
	}
}
