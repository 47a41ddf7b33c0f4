package control

import (
	"math"
	"math/rand/v2"
	"testing"

	"rapid/internal/meet"
	"rapid/internal/packet"
)

func twoStates() (*State, *State) {
	return NewState(0, 3, nil), NewState(1, 3, nil)
}

func unlimited() Options { return Options{MaxBytes: -1} }

func TestExchangePropagatesAcks(t *testing.T) {
	a, b := twoStates()
	a.LearnAck(42, 10)
	res := Exchange(a, b, nil, nil, 20, unlimited())
	if !b.IsAcked(42) {
		t.Fatal("ack not propagated")
	}
	if res.Acks != 1 {
		t.Errorf("acks=%d want 1", res.Acks)
	}
	if res.Bytes < AckRecordBytes {
		t.Errorf("bytes=%d too small", res.Bytes)
	}
	// Delta: second exchange sends no acks.
	res2 := Exchange(a, b, nil, nil, 30, unlimited())
	if res2.Acks != 0 {
		t.Errorf("delta exchange resent acks: %d", res2.Acks)
	}
}

func TestExchangeInventoryCreatesReplicaKnowledge(t *testing.T) {
	a, b := twoStates()
	inv := []InventoryItem{{ID: 7, Dst: 5, Size: 1024, Created: 1, Delay: 300}}
	res := Exchange(a, b, inv, nil, 10, unlimited())
	if res.Inventory != 1 {
		t.Fatalf("inventory=%d want 1", res.Inventory)
	}
	reps := b.Replicas(7)
	if len(reps) != 1 || reps[0].Holder != 0 || reps[0].Delay != 300 {
		t.Fatalf("replicas=%v", reps)
	}
	// The announcing side keeps no in-band record of its own copy.
	if got := a.ReplicaCount(7); got != 0 {
		t.Errorf("sender replica count=%d want 0", got)
	}
	m := b.Meta(7)
	if m == nil || m.Dst != 5 || m.Size != 1024 {
		t.Fatalf("meta=%+v", m)
	}
}

func TestThirdPartyReplicaGossip(t *testing.T) {
	// a learns about node 9's replica via inventory from 9, then passes
	// it to b at a later meeting — because b itself carries packet 7
	// and needs to know about its other replicas (Eq. 8's A(i)).
	a, _ := twoStates()
	nine := NewState(9, 3, nil)
	inv := []InventoryItem{{ID: 7, Dst: 5, Size: 1024, Delay: 120}}
	Exchange(nine, a, inv, nil, 10, unlimited())
	b := NewState(1, 3, nil)
	invB := []InventoryItem{{ID: 7, Dst: 5, Size: 1024, Delay: 400}}
	res := Exchange(a, b, nil, invB, 20, unlimited())
	if res.Replicas == 0 {
		t.Fatal("third-party replica record not gossiped")
	}
	reps := b.Replicas(7)
	// b now knows of holders 9 (gossiped), a? (a never announced
	// holding it), and itself.
	var sawNine bool
	for _, r := range reps {
		if r.Holder == 9 {
			sawNine = true
		}
	}
	if !sawNine {
		t.Fatalf("replicas=%v missing holder 9", reps)
	}
}

func TestThirdPartyGossipScopedToReceiverBuffer(t *testing.T) {
	// Replica records about packets the receiver does NOT hold are
	// suppressed: no utility computation at the receiver reads them.
	a, _ := twoStates()
	nine := NewState(9, 3, nil)
	Exchange(nine, a, []InventoryItem{{ID: 7, Dst: 5, Size: 1, Delay: 9}}, nil, 10, unlimited())
	b := NewState(1, 3, nil)
	res := Exchange(a, b, nil, nil, 20, unlimited())
	if res.Replicas != 0 {
		t.Errorf("gossiped %d records about packets the receiver lacks", res.Replicas)
	}
	if len(b.Replicas(7)) != 0 {
		t.Error("receiver learned about a packet it does not carry")
	}
}

func TestLocalOnlySuppressesThirdParty(t *testing.T) {
	a, _ := twoStates()
	nine := NewState(9, 3, nil)
	Exchange(nine, a, []InventoryItem{{ID: 7, Dst: 5, Size: 1, Delay: 9}}, nil, 10, unlimited())
	b := NewState(1, 3, nil)
	res := Exchange(a, b, nil, nil, 20, Options{MaxBytes: -1, LocalOnly: true})
	if res.Replicas != 0 {
		t.Errorf("local-only exchange sent %d third-party records", res.Replicas)
	}
	if len(b.Replicas(7)) != 0 {
		t.Error("third-party knowledge leaked in local-only mode")
	}
}

func TestAcksOnlyMode(t *testing.T) {
	a, b := twoStates()
	a.LearnAck(1, 5)
	a.ObserveTransfer(1000)
	res := Exchange(a, b, []InventoryItem{{ID: 3, Dst: 2, Size: 1}}, nil, 10, Options{MaxBytes: -1, AcksOnly: true})
	if !b.IsAcked(1) {
		t.Error("acks-only exchange must carry acks")
	}
	if res.Inventory != 0 || res.Tables != 0 {
		t.Errorf("acks-only exchange carried extra data: %+v", res)
	}
	if b.AvgTransferOf(0, -1) != -1 {
		t.Error("acks-only exchange leaked transfer averages")
	}
}

func TestByteCapTruncates(t *testing.T) {
	a, b := twoStates()
	for i := packet.ID(0); i < 100; i++ {
		a.LearnAck(i, 1)
	}
	res := Exchange(a, b, nil, nil, 10, Options{MaxBytes: 80})
	if !res.Truncated {
		t.Error("exchange should be truncated")
	}
	if res.Bytes > 80 {
		t.Errorf("bytes=%d exceeds cap", res.Bytes)
	}
	if res.Acks != 10 {
		t.Errorf("acks=%d want 10 (80/8)", res.Acks)
	}
	// Zero budget: nothing at all.
	c, d := NewState(5, 3, nil), NewState(6, 3, nil)
	c.LearnAck(1, 1)
	res = Exchange(c, d, nil, nil, 10, Options{MaxBytes: 0})
	if res.Bytes != 0 || d.IsAcked(1) {
		t.Error("zero budget must carry nothing")
	}
}

func TestMeetingTablesGossip(t *testing.T) {
	a, b := twoStates()
	// a meets node 2 twice -> direct table entry (gaps 50, 100 -> 75).
	a.Meet.ObserveMeeting(2, 50)
	a.Meet.ObserveMeeting(2, 150)
	Exchange(a, b, nil, nil, 200, unlimited())
	// b can now estimate meeting node 2 through a's table.
	if got := b.Meet.Expected(0, 2); got != 75 {
		t.Errorf("b's view of E(M_a,2)=%v want 75", got)
	}
	if got := b.Meet.Expected(1, 2); math.IsInf(got, 1) {
		t.Error("b should reach 2 transitively via a")
	}
}

func TestExchangeObservesMeetingBothSides(t *testing.T) {
	a, b := twoStates()
	Exchange(a, b, nil, nil, 100, unlimited())
	if got := a.Meet.Expected(0, 1); got != 100 {
		t.Errorf("a's gap %v want 100", got)
	}
	if got := b.Meet.Expected(1, 0); got != 100 {
		t.Errorf("b's gap %v want 100", got)
	}
}

func TestAckClearsMetadataAndBlocksReplicas(t *testing.T) {
	a, _ := twoStates()
	item := InventoryItem{ID: 7, Dst: 5, Size: 1, Delay: 10}
	a.NoteReplica(item, 3, 1)
	if a.ReplicaCount(7) != 1 {
		t.Fatal("replica not noted")
	}
	a.LearnAck(7, 2)
	if a.Meta(7) != nil {
		t.Error("metadata not purged on ack")
	}
	a.NoteReplica(item, 4, 3)
	if a.ReplicaCount(7) != 0 {
		t.Error("acked packet accepted new replica metadata")
	}
}

func TestDropReplica(t *testing.T) {
	a, _ := twoStates()
	a.NoteReplica(InventoryItem{ID: 7, Dst: 5, Size: 1, Delay: 10}, 3, 1)
	a.DropReplica(7, 3, 2)
	if a.ReplicaCount(7) != 0 {
		t.Error("replica not dropped")
	}
	a.DropReplica(99, 3, 2) // unknown packet: no-op
}

func TestAvgTransferPropagation(t *testing.T) {
	a, b := twoStates()
	a.ObserveTransfer(1000)
	a.ObserveTransfer(3000)
	Exchange(a, b, nil, nil, 10, unlimited())
	if got := b.AvgTransferOf(0, -1); got != 2000 {
		t.Errorf("B_a at b=%v want 2000", got)
	}
	if got := b.AvgTransferOf(7, 512); got != 512 {
		t.Errorf("unknown node default=%v want 512", got)
	}
	if got := a.AvgTransferBytes(99); got != 2000 {
		t.Errorf("own avg=%v", got)
	}
	empty := NewState(9, 3, nil)
	if got := empty.AvgTransferBytes(99); got != 99 {
		t.Errorf("default=%v", got)
	}
}

func TestGlobalChannel(t *testing.T) {
	hub := NewHub(3)
	a := NewState(0, 3, hub)
	b := NewState(1, 3, hub)
	c := NewState(2, 3, hub)
	// An ack by a is instantly visible everywhere.
	a.LearnAck(5, 1)
	if !b.IsAcked(5) || !c.IsAcked(5) {
		t.Fatal("global ack not instant")
	}
	// Replica notes are shared.
	a.NoteReplica(InventoryItem{ID: 9, Dst: 2, Size: 1, Delay: 77}, 0, 1)
	if got := c.Replicas(9); len(got) != 1 || got[0].Delay != 77 {
		t.Fatalf("global replicas=%v", got)
	}
	// Transfer averages are shared.
	a.ObserveTransfer(4000)
	if got := b.AvgTransferOf(0, -1); got != 4000 {
		t.Errorf("global avg=%v", got)
	}
	// Exchange costs nothing.
	res := Exchange(a, b, []InventoryItem{{ID: 9, Dst: 2, Size: 1, Delay: 60}}, nil, 10, unlimited())
	if res.Bytes != 0 {
		t.Errorf("global exchange cost %d bytes", res.Bytes)
	}
	// Meeting tables synced globally after exchange.
	if got := c.Expected(0, 1); math.IsInf(got, 1) {
		t.Error("global meeting tables not synced")
	}
	if !a.Global() {
		t.Error("Global() must report true")
	}
	// An ack deletes the packet's shared record (§4.2), for every node.
	a.NoteReplica(InventoryItem{ID: 9, Dst: 2, Size: 1, Delay: 50}, 1, 11)
	if got := c.ReplicaCount(9); got != 2 {
		t.Fatalf("global replicas of 9 before its ack = %d, want 2", got)
	}
	b.LearnAck(9, 12)
	for _, s := range []*State{a, b, c, hub} {
		if m := s.Meta(9); m != nil {
			t.Errorf("node %d: record of acked packet 9 survives: %+v", s.self, m)
		}
	}
	// A note arriving after the ack writes nothing.
	c.NoteReplica(InventoryItem{ID: 9, Dst: 2, Size: 1, Delay: 40}, 2, 13)
	if got := a.ReplicaCount(9); got != 0 {
		t.Errorf("note after ack recorded %d replicas", got)
	}
}

// TestGlobalMatrixMatchesMirrors: on the global channel every node
// answers Expected from the one shared matrix. After every exchange the
// answer must equal, bit for bit, that of a per-node reference
// estimator that observes the node's own meetings and merges every
// other node's direct table: the mirror each node would keep if the
// channel copied every table to every node.
func TestGlobalMatrixMatchesMirrors(t *testing.T) {
	for seed := uint64(1); seed <= 7; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		nodes := 2 + int(seed)%7 // 2..8
		hub := NewHub(3)
		states := make([]*State, nodes)
		refs := make([]*meet.Estimator, nodes)
		for i := range states {
			states[i] = NewState(packet.NodeID(i), 3, hub)
			refs[i] = meet.New(packet.NodeID(i), 3)
		}
		now := 0.0
		for step := 0; step < 40; step++ {
			now += float64(1 + rng.IntN(60))
			u := rng.IntN(nodes)
			v := (u + 1 + rng.IntN(nodes-1)) % nodes
			Exchange(states[u], states[v], nil, nil, now, unlimited())
			refs[u].ObserveMeeting(packet.NodeID(v), now)
			refs[v].ObserveMeeting(packet.NodeID(u), now)
			for i, ref := range refs {
				for j, s := range states {
					if j != i {
						ref.MergeTable(packet.NodeID(j), s.Meet.DirectTable())
					}
				}
			}
			for i, s := range states {
				for from := packet.NodeID(0); from < packet.NodeID(nodes); from++ {
					for to := packet.NodeID(0); to < packet.NodeID(nodes); to++ {
						got, want := s.Expected(from, to), refs[i].Expected(from, to)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seed %d step %d: node %d Expected(%d, %d) = %v, mirror %v",
								seed, step, i, from, to, got, want)
						}
					}
				}
			}
		}
	}
}

func TestReplicaEstimateFreshness(t *testing.T) {
	a, _ := twoStates()
	item := InventoryItem{ID: 7, Dst: 5, Size: 1, Delay: 100}
	a.NoteReplica(item, 3, 10)
	stale := item
	stale.Delay = 500
	a.NoteReplica(stale, 3, 5) // older update must not overwrite
	if got := a.Replicas(7)[0].Delay; got != 100 {
		t.Errorf("stale update overwrote: %v", got)
	}
	fresh := item
	fresh.Delay = 50
	a.NoteReplica(fresh, 3, 20)
	if got := a.Replicas(7)[0].Delay; got != 50 {
		t.Errorf("fresh update ignored: %v", got)
	}
}

func TestTruncatedExchangeOwnerSkippedInGossip(t *testing.T) {
	// a meets c under a zero budget: finishExchange registers c as a
	// table owner at a, but c's table never arrived. Gossiping to b must
	// skip that owner rather than price an empty table for it.
	a, b := twoStates()
	c := NewState(2, 3, nil)
	if res := Exchange(a, c, nil, nil, 10, Options{MaxBytes: 0}); !res.Truncated || res.Tables != 0 {
		t.Fatalf("zero-budget exchange %+v", res)
	}
	if _, known := a.Meet.RowLen(2); known {
		t.Fatal("truncated exchange merged c's table")
	}
	res := Exchange(a, b, nil, nil, 20, unlimited())
	// Transfer scalars, a's own table (peers 1 and 2), b's own table
	// (peer 0); nothing for owner 2.
	wantBytes := int64(2*ScalarBytes + TableHeaderBytes + 2*MeetEntryBytes + TableHeaderBytes + MeetEntryBytes)
	if res.Bytes != wantBytes || res.Tables != 2 {
		t.Errorf("bytes=%d tables=%d want %d, 2", res.Bytes, res.Tables, wantBytes)
	}
	if _, known := b.Meet.RowLen(2); known {
		t.Error("b learned a table for owner 2 that a never had")
	}
}

// TestTruncatedOwnerHoldsBackOlderTable: an owner registered by a
// truncated exchange (freshness raised, table never merged) is not
// gossiped onward, and its freshness still keeps an older copy of its
// table, held by a third node, from being sent.
func TestTruncatedOwnerHoldsBackOlderTable(t *testing.T) {
	a, b := twoStates()
	c, d := NewState(2, 3, nil), NewState(3, 3, nil)
	// d learns c's table as of 10.
	c.Meet.ObserveMeeting(4, 5)
	Exchange(c, d, nil, nil, 10, unlimited())
	if n, known := d.Meet.RowLen(2); n != 2 || !known {
		t.Fatalf("d's RowLen(2)=(%d,%v) want (2,true)", n, known)
	}
	// a meets c at 20 under a zero budget: c is registered at a as of
	// 20, but its table never arrives.
	if res := Exchange(a, c, nil, nil, 20, Options{MaxBytes: 0}); !res.Truncated || res.Tables != 0 {
		t.Fatalf("zero-budget exchange %+v", res)
	}
	if got := a.tableAsOfFor(2); got != 20 {
		t.Fatalf("a's freshness for owner 2 = %v, want 20", got)
	}
	// a gossips its own table to b and b its own to a; nothing for
	// owner 2.
	if res := Exchange(a, b, nil, nil, 30, unlimited()); res.Tables != 2 {
		t.Errorf("a-b exchange sent %d tables, want 2", res.Tables)
	}
	if _, known := b.Meet.RowLen(2); known {
		t.Error("b learned a table for owner 2 that a never had")
	}
	// d's copy of c's table (as of 10) is older than a's freshness for
	// c (20), so d does not send it: a's and d's own tables, and b's
	// (as of 30, newer than d's nothing) go a to d.
	res := Exchange(a, d, nil, nil, 40, unlimited())
	if _, known := a.Meet.RowLen(2); known {
		t.Error("d sent a its older copy of owner 2's table")
	}
	if res.Tables != 3 {
		t.Errorf("a-d exchange sent %d tables, want 3 (a's, b's, d's)", res.Tables)
	}
}

func TestKnownEmptyTablePricedAtHeader(t *testing.T) {
	a, b := twoStates()
	a.Meet.MergeTable(5, meet.Table{})
	a.raiseTableAsOf(5, 5)
	res := Exchange(a, b, nil, nil, 20, unlimited())
	wantBytes := int64(2*ScalarBytes + 2*(TableHeaderBytes+MeetEntryBytes) + TableHeaderBytes)
	if res.Bytes != wantBytes || res.Tables != 3 {
		t.Errorf("bytes=%d tables=%d want %d, 3", res.Bytes, res.Tables, wantBytes)
	}
	if n, known := b.Meet.RowLen(5); n != 0 || !known {
		t.Errorf("b's RowLen(5)=(%d,%v) want (0,true)", n, known)
	}
}

// TestExchangeAllocs: a warmed exchange that gossips a fresh replica
// record for every packet the receiver carries allocates the same at
// 100 and at 1,000 carried packets. Replica gossip walks a reused,
// sorted copy of the receiver's inventory IDs and the queue digest
// counts destinations in a stamped slice, so no per-item set is built.
func TestExchangeAllocs(t *testing.T) {
	allocs := func(items int) float64 {
		a, b := twoStates()
		inv := make([]InventoryItem, items)
		for i := range inv {
			// Descending IDs: store order is not ID order.
			inv[i] = InventoryItem{ID: packet.ID(items - i), Dst: packet.NodeID(3 + i%20), Size: 1024, Delay: 100}
		}
		now := 1.0
		step := func() {
			now++
			// The sender hears a reachability flip for a third-party
			// replica of every carried packet, so each is re-gossiped.
			for _, it := range inv {
				if int(now)%2 == 0 {
					it.Delay = math.Inf(1)
				}
				a.NoteReplica(it, 2, now)
			}
			Exchange(a, b, nil, inv, now, unlimited())
		}
		for i := 0; i < 4; i++ {
			step()
		}
		if got := b.Replicas(packet.ID(1)); len(got) != 1 || got[0].Holder != 2 || got[0].Updated != now {
			t.Fatalf("receiver replicas %+v at %v: gossip not flowing", got, now)
		}
		return testing.AllocsPerRun(50, step)
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocs per exchange: %v at 100 items, %v at 1,000", small, large)
	if small != large {
		t.Errorf("allocs per exchange grow with the inventory: %v at 100 items, %v at 1,000", small, large)
	}
}

// TestLastExchangeByPeersMet: exchange times and announced transfer
// averages are held per peer exchanged with, sorted by peer, not per
// node ID of the run.
func TestLastExchangeByPeersMet(t *testing.T) {
	s := NewState(0, 3, nil)
	for _, ex := range []struct {
		peer     packet.NodeID
		at       float64
		transfer int64
	}{{900, 10, 0}, {5, 20, 700}, {300, 30, 0}, {5, 40, 0}} {
		peer := NewState(ex.peer, 3, nil)
		if ex.transfer > 0 {
			peer.ObserveTransfer(ex.transfer)
		}
		Exchange(s, peer, nil, nil, ex.at, unlimited())
	}
	want := []struct {
		peer         packet.NodeID
		at, transfer float64
	}{{5, 40, 700}, {300, 30, -1}, {900, 10, -1}}
	if len(s.peers) != len(want) {
		t.Fatalf("peers %v, want %v", s.peers, want)
	}
	for i, w := range want {
		if p := s.peers[i]; p.peer != w.peer || p.at != w.at {
			t.Errorf("peers[%d] = %v, want peer %d at %v", i, p, w.peer, w.at)
		}
		if got := s.lastExchangeWith(w.peer); got != w.at {
			t.Errorf("lastExchangeWith(%d) = %v, want %v", w.peer, got, w.at)
		}
		if got := s.AvgTransferOf(w.peer, -1); got != w.transfer {
			t.Errorf("AvgTransferOf(%d) = %v, want %v", w.peer, got, w.transfer)
		}
	}
	for _, peer := range []packet.NodeID{7, 1000} {
		if got := s.lastExchangeWith(peer); got != 0 {
			t.Errorf("lastExchangeWith(%d) = %v, want 0", peer, got)
		}
	}
}
