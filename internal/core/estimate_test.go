package core

import (
	"math"
	"testing"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/sim"
)

// testNet builds a minimal two-node network with RAPID routers for
// estimator unit tests.
func testNet(t *testing.T, metric Metric, bufBytes int64) (*routing.Network, *routing.Node, *routing.Node) {
	t.Helper()
	net := routing.NewNetwork(sim.New(1), []packet.NodeID{0, 1, 2},
		New(metric), routing.Config{
			BufferBytes:          bufBytes,
			Mode:                 routing.ControlInBand,
			MetaFraction:         -1,
			DefaultTransferBytes: 1000,
		})
	net.Horizon = 10000
	return net, net.Node(0), net.Node(1)
}

func TestQueueIndexOrdersOldestFirst(t *testing.T) {
	s := buffer.New(0)
	// Three packets to dst 5: created at 30, 10, 20 with sizes 100 each.
	ps := map[packet.ID]*packet.Packet{}
	for i, created := range []float64{30, 10, 20} {
		p := &packet.Packet{ID: packet.ID(i + 1), Dst: 5, Size: 100, Created: created}
		ps[p.ID] = p
		s.Insert(&buffer.Entry{P: p}, nil)
	}
	// A packet to another destination must not interfere.
	ps[9] = &packet.Packet{ID: 9, Dst: 7, Size: 500, Created: 0}
	s.Insert(&buffer.Entry{P: ps[9]}, nil)
	idx := NewQueueIndex(s)
	if got := idx.BytesAhead(ps[2]); got != 0 { // created 10: head
		t.Errorf("head bytesAhead=%d want 0", got)
	}
	if got := idx.BytesAhead(ps[3]); got != 100 { // created 20
		t.Errorf("mid bytesAhead=%d want 100", got)
	}
	if got := idx.BytesAhead(ps[1]); got != 200 { // created 30
		t.Errorf("tail bytesAhead=%d want 200", got)
	}
	if got := idx.BytesAhead(ps[9]); got != 0 {
		t.Errorf("other-dst bytesAhead=%d want 0", got)
	}
	// A packet not in the buffer has no position.
	if got := idx.BytesAhead(&packet.Packet{ID: 4, Dst: 5, Size: 100, Created: 25}); got != 0 {
		t.Errorf("absent bytesAhead=%d want 0", got)
	}
}

func TestHypoBytesAhead(t *testing.T) {
	s := buffer.New(0)
	s.Insert(&buffer.Entry{P: &packet.Packet{ID: 1, Dst: 5, Size: 100, Created: 10}}, nil)
	s.Insert(&buffer.Entry{P: &packet.Packet{ID: 2, Dst: 5, Size: 100, Created: 30}}, nil)
	s.Insert(&buffer.Entry{P: &packet.Packet{ID: 3, Dst: 6, Size: 100, Created: 5}}, nil)
	idx := NewQueueIndex(s)
	// A packet created at 20 would slot between them.
	p := &packet.Packet{ID: 4, Dst: 5, Size: 50, Created: 20}
	if got := idx.HypoBytesAhead(p); got != 100 {
		t.Errorf("hypothetical bytesAhead=%d want 100", got)
	}
	// Same-ID packet in the store is not double counted.
	pSelf := &packet.Packet{ID: 2, Dst: 5, Size: 100, Created: 30}
	if got := idx.HypoBytesAhead(pSelf); got != 100 {
		t.Errorf("self-excluding bytesAhead=%d want 100", got)
	}
	// Newer than everything: the whole queue is ahead.
	late := &packet.Packet{ID: 9, Dst: 5, Size: 1, Created: 99}
	if got := idx.HypoBytesAhead(late); got != 200 {
		t.Errorf("tail bytesAhead=%d want 200", got)
	}
	// Older than everything: nothing ahead.
	early := &packet.Packet{ID: 0, Dst: 5, Size: 1, Created: 1}
	if got := idx.HypoBytesAhead(early); got != 0 {
		t.Errorf("head bytesAhead=%d want 0", got)
	}
	// Unknown destination: empty queue.
	other := &packet.Packet{ID: 9, Dst: 77, Size: 1, Created: 1}
	if got := idx.HypoBytesAhead(other); got != 0 {
		t.Errorf("unknown dst bytesAhead=%d want 0", got)
	}
}

func TestMeetingsNeeded(t *testing.T) {
	cases := []struct {
		ahead, size int64
		b           float64
		want        float64
	}{
		{0, 1000, 1000, 1},    // head packet, fits one transfer
		{0, 1, 1000, 1},       // tiny head packet
		{1000, 1000, 1000, 2}, /* one queue drain + self */
		{2500, 1000, 1000, 4},
		{0, 1000, 0, 1}, // degenerate average: clamp to one meeting
	}
	for _, c := range cases {
		if got := meetingsNeeded(c.ahead, c.size, c.b); got != c.want {
			t.Errorf("meetingsNeeded(%d,%d,%v)=%v want %v", c.ahead, c.size, c.b, got, c.want)
		}
	}
}

func TestSelfDelayUsesMeetingTimeAndQueue(t *testing.T) {
	_, n0, _ := testNet(t, AvgDelay, 0)
	// n0 meets node 2 every 100 s on average.
	n0.Ctl.Meet.ObserveMeeting(2, 100)
	n0.Ctl.ObserveTransfer(1000) // B = 1000
	r := n0.Router.(*Router)

	p1 := &packet.Packet{ID: 1, Dst: 2, Size: 1000, Created: 0}
	p2 := &packet.Packet{ID: 2, Dst: 2, Size: 1000, Created: 5}
	n0.Store.Insert(&buffer.Entry{P: p1}, nil)
	n0.Store.Insert(&buffer.Entry{P: p2}, nil)
	idx := NewQueueIndex(n0.Store)
	// Head packet: 1 meeting -> 100 s. Second: 2 meetings -> 200 s.
	if got := r.est.SelfDelay(p1, idx.BytesAhead(p1)); got != 100 {
		t.Errorf("head self delay %v want 100", got)
	}
	if got := r.est.SelfDelay(p2, idx.BytesAhead(p2)); got != 200 {
		t.Errorf("queued self delay %v want 200", got)
	}
	// Unknown destination: infinite.
	pu := &packet.Packet{ID: 3, Dst: 99, Size: 1, Created: 0}
	if got := r.est.SelfDelay(pu, idx.BytesAhead(pu)); !math.IsInf(got, 1) {
		t.Errorf("unreachable dst delay %v want +Inf", got)
	}
}

func TestKnownDelaysIncludesRemoteReplicas(t *testing.T) {
	_, n0, _ := testNet(t, AvgDelay, 0)
	n0.Ctl.Meet.ObserveMeeting(2, 100)
	n0.Ctl.ObserveTransfer(1000)
	r := n0.Router.(*Router)
	p := &packet.Packet{ID: 1, Dst: 2, Size: 1000, Created: 0}
	n0.Store.Insert(&buffer.Entry{P: p}, nil)
	// Control plane knows node 1 also holds a replica with estimate 50.
	n0.Ctl.NoteReplica(control.InventoryItem{
		ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created, Delay: 50,
	}, 1, 1)
	ahead := NewQueueIndex(n0.Store).BytesAhead(p)
	delays := r.est.KnownDelays(p, ahead)
	if len(delays) != 2 {
		t.Fatalf("delays %v", delays)
	}
	// Combined: 1/(1/100 + 1/50) = 33.3…
	a := r.est.RemainingDelay(p, ahead)
	want := 1.0 / (1.0/100 + 1.0/50)
	if math.Abs(a-want) > 1e-9 {
		t.Errorf("A(i)=%v want %v", a, want)
	}
	// D(i) = T + A at now=10.
	d := r.est.ExpectedDelay(p, ahead, 10)
	if math.Abs(d-(10+want)) > 1e-9 {
		t.Errorf("D(i)=%v want %v", d, 10+want)
	}
}

func TestPeerDelayHypothesis(t *testing.T) {
	_, n0, n1 := testNet(t, AvgDelay, 0)
	// n0 knows: n1 meets dst 2 every 40 s (via n1's gossiped table).
	n0.Ctl.Meet.MergeTable(1, map[packet.NodeID]float64{2: 40})
	r := n0.Router.(*Router)
	p := &packet.Packet{ID: 1, Dst: 2, Size: 1000, Created: 0}
	// Peer has an older packet to the same destination queued.
	n1.Store.Insert(&buffer.Entry{P: &packet.Packet{ID: 9, Dst: 2, Size: 1000, Created: 0}}, nil)
	p.Created = 10
	// b_Y = 1000 (the older packet), so n = ceil(2000/1000) = 2.
	if got := r.est.PeerDelay(n1, NewQueueIndex(n1.Store).HypoBytesAhead(p), p); got != 80 {
		t.Errorf("peer delay %v want 80", got)
	}
}
