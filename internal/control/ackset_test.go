package control

import (
	"math/rand"
	"testing"

	"rapid/internal/packet"
)

// TestAckSetMatchesMap drives LearnAck and IsAcked with random ID
// sequences, in-band and over the global channel, against a map. The
// IDs straddle word boundaries (0, 63, 64, 127), include repeats, and
// queries run past the set's grown length. In-band, the ack changelog
// must log each ID once, in learning order.
func TestAckSetMatchesMap(t *testing.T) {
	boundary := []packet.ID{0, 1, 62, 63, 64, 65, 126, 127, 128, 1000, 4095, 4096}
	for _, global := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			var hub *State
			if global {
				hub = NewHub(3)
			}
			s := NewState(0, 3, hub)
			ref := map[packet.ID]bool{}
			var order []packet.ID
			pick := func() packet.ID {
				if r.Intn(2) == 0 {
					return boundary[r.Intn(len(boundary))]
				}
				return packet.ID(r.Intn(1 << (2 + r.Intn(12))))
			}
			for op := 0; op < 400; op++ {
				if id := pick(); r.Intn(3) == 0 {
					s.LearnAck(id, float64(op))
					if !ref[id] {
						ref[id] = true
						order = append(order, id)
					}
				} else if got := s.IsAcked(id); got != ref[id] {
					t.Fatalf("global=%v seed %d op %d: IsAcked(%d) = %v, want %v", global, seed, op, id, got, ref[id])
				}
			}
			for _, id := range append(boundary, -1, -64, 1<<20, packet.MaxID-1, packet.MaxID) {
				if got := s.IsAcked(id); got != ref[id] {
					t.Fatalf("global=%v seed %d: IsAcked(%d) = %v, want %v", global, seed, id, got, ref[id])
				}
			}
			if global {
				continue
			}
			if len(s.ackIDs) != len(order) {
				t.Fatalf("seed %d: %d acks logged, want %d", seed, len(s.ackIDs), len(order))
			}
			for i, id := range order {
				if s.ackIDs[i] != id {
					t.Fatalf("seed %d: ack log entry %d is %d, want %d", seed, i, s.ackIDs[i], id)
				}
			}
		}
	}
}

// TestIsAckedAllocs checks that IsAcked never allocates and never grows
// the ack set, for an ID inside it and for one past its end.
func TestIsAckedAllocs(t *testing.T) {
	for _, hub := range []*State{nil, NewHub(3)} {
		s := NewState(0, 3, hub)
		for id := packet.ID(1); id <= 100; id += 3 {
			s.LearnAck(id, 1)
		}
		set := &s.knows().acked
		n := len(*set)
		for _, id := range []packet.ID{7, 8, 1 << 20} {
			if allocs := testing.AllocsPerRun(100, func() { s.IsAcked(id) }); allocs != 0 {
				t.Errorf("global=%v: IsAcked(%d) makes %v allocs, want 0", hub != nil, id, allocs)
			}
		}
		if len(*set) != n {
			t.Errorf("global=%v: IsAcked grew the ack set from %d to %d words", hub != nil, n, len(*set))
		}
	}
}

// TestLearnAckOutOfRangePanics checks the control plane's own guard on
// the packet-ID bound.
func TestLearnAckOutOfRangePanics(t *testing.T) {
	for _, id := range []packet.ID{-1, packet.MaxID} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LearnAck(%d) did not panic", id)
				}
			}()
			NewState(0, 3, nil).LearnAck(id, 1)
		}()
	}
}
