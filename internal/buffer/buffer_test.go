package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/packet"
)

func mkPkt(id packet.ID, size int64) *packet.Packet {
	return &packet.Packet{ID: id, Src: 0, Dst: 1, Size: size}
}

func TestInsertGetRemove(t *testing.T) {
	s := New(100)
	e := &Entry{P: mkPkt(1, 40), ReceivedAt: 5}
	if !s.Insert(e, nil) {
		t.Fatal("insert failed")
	}
	if !s.Has(1) || s.Get(1) != e || s.Used() != 40 || s.Len() != 1 {
		t.Fatal("state after insert wrong")
	}
	// Duplicate insert is a no-op success.
	if !s.Insert(&Entry{P: mkPkt(1, 40)}, nil) {
		t.Fatal("duplicate insert should succeed")
	}
	if s.Len() != 1 || s.Used() != 40 {
		t.Fatal("duplicate insert changed state")
	}
	if !s.Remove(1) {
		t.Fatal("remove failed")
	}
	if s.Has(1) || s.Used() != 0 || s.Len() != 0 {
		t.Fatal("state after remove wrong")
	}
	if s.Remove(1) {
		t.Fatal("double remove should report false")
	}
}

func TestCapacityEnforcedWithoutUtility(t *testing.T) {
	s := New(100)
	if !s.Insert(&Entry{P: mkPkt(1, 60)}, nil) {
		t.Fatal("first insert")
	}
	if s.Insert(&Entry{P: mkPkt(2, 60)}, nil) {
		t.Fatal("over-capacity insert without utility must fail")
	}
	if s.Used() != 60 {
		t.Fatalf("used=%d", s.Used())
	}
	// A packet bigger than total capacity never fits.
	if s.Insert(&Entry{P: mkPkt(3, 200)}, func(*Entry, int64) float64 { return 0 }) {
		t.Fatal("oversized packet must fail")
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	s := New(0)
	for i := 0; i < 1000; i++ {
		if !s.Insert(&Entry{P: mkPkt(packet.ID(i), 1<<20)}, nil) {
			t.Fatal("unlimited store rejected insert")
		}
	}
	if s.Used() != 1000<<20 {
		t.Errorf("unlimited store holds %d bytes, want %d", s.Used(), 1000<<20)
	}
}

func TestEvictionOrderByUtility(t *testing.T) {
	s := New(100)
	util := func(e *Entry, _ int64) float64 { return float64(e.P.ID) } // higher ID = higher utility
	for i := 1; i <= 4; i++ {
		if !s.Insert(&Entry{P: mkPkt(packet.ID(i), 25)}, util) {
			t.Fatalf("insert %d", i)
		}
	}
	// Store full (4×25). Inserting 50 must evict IDs 1 and 2 (lowest
	// utility first).
	if !s.Insert(&Entry{P: mkPkt(10, 50)}, util) {
		t.Fatal("eviction insert failed")
	}
	if s.Has(1) || s.Has(2) {
		t.Error("lowest-utility packets not evicted")
	}
	if !s.Has(3) || !s.Has(4) || !s.Has(10) {
		t.Error("wrong survivors")
	}
	if s.Used() != 100 {
		t.Errorf("used=%d want 100", s.Used())
	}
}

func TestOwnPacketsProtectedFromEviction(t *testing.T) {
	s := New(100)
	util := func(e *Entry, _ int64) float64 { return float64(e.P.ID) }
	if !s.Insert(&Entry{P: mkPkt(1, 50), Own: true}, util) {
		t.Fatal("insert own")
	}
	if !s.Insert(&Entry{P: mkPkt(2, 50)}, util) {
		t.Fatal("insert relay")
	}
	// ID 1 has lowest utility but is Own: ID 2 must be evicted instead.
	if !s.Insert(&Entry{P: mkPkt(3, 50)}, util) {
		t.Fatal("eviction insert failed")
	}
	if !s.Has(1) {
		t.Error("own packet was evicted")
	}
	if s.Has(2) {
		t.Error("relay packet should have been evicted")
	}
	// All remaining protected: a new insert must fail.
	if !s.Get(3).Own {
		s.Get(3).Own = true
	}
	if s.Insert(&Entry{P: mkPkt(4, 80)}, util) {
		t.Error("insert must fail when only protected entries remain")
	}
}

// Property: under any operation sequence, used bytes equal the sum of
// stored packet sizes and never exceed capacity.
func TestAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := int64(500 + r.Intn(1000))
		s := New(capacity)
		util := func(e *Entry, _ int64) float64 { return float64(e.P.ID % 7) }
		nextID := packet.ID(1)
		live := map[packet.ID]bool{}
		for op := 0; op < 300; op++ {
			switch r.Intn(3) {
			case 0, 1: // insert
				size := int64(1 + r.Intn(200))
				e := &Entry{P: mkPkt(nextID, size), Own: r.Intn(10) == 0}
				if s.Insert(e, util) {
					live[nextID] = true
				}
				nextID++
			case 2: // remove random known id
				if len(live) > 0 {
					for id := range live {
						s.Remove(id)
						break
					}
				}
			}
			// Recompute invariant.
			var sum int64
			seen := map[packet.ID]bool{}
			for _, e := range s.Entries() {
				if seen[e.P.ID] {
					return false // duplicate entry
				}
				seen[e.P.ID] = true
				sum += e.P.Size
			}
			if sum != s.Used() || (capacity > 0 && s.Used() > capacity) {
				return false
			}
			if len(s.Entries()) != s.Len() {
				return false
			}
			// Index coherence: every entry retrievable.
			for _, e := range s.Entries() {
				if s.Get(e.P.ID) != e {
					return false
				}
			}
			// Refresh live set (evictions).
			for id := range live {
				if !s.Has(id) {
					delete(live, id)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInsertNil(t *testing.T) {
	s := New(10)
	if s.Insert(nil, nil) || s.Insert(&Entry{}, nil) {
		t.Error("nil inserts must fail")
	}
}
