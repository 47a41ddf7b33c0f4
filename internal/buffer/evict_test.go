package buffer

import (
	"cmp"
	"slices"
	"testing"

	"rapid/internal/packet"
)

// evictStream feeds fuzz input to the operation generator; an exhausted
// stream yields zeros.
type evictStream []byte

// intn returns the next input byte reduced mod n (0 for n <= 1).
func (s *evictStream) intn(n int) int {
	if n <= 1 || len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// evictSizes mixes packet sizes so one insert can need several victims.
var evictSizes = []int64{10, 25, 40, 70, 130}

// evictUtil is a pure utility that reads ahead, with frequent ties so
// the packet-ID tie-break decides.
func evictUtil(e *Entry, ahead int64) float64 {
	return float64((uint64(ahead)/10 + uint64(e.P.ID)*7) % 6)
}

// refAhead recomputes an entry's bytes ahead from scratch: the sizes of
// every live entry to the same destination that is older by
// (Created, ID), the source's own copies included.
func refAhead(live []*Entry, e *Entry) int64 {
	var ahead int64
	for _, o := range live {
		if o.P.Dst == e.P.Dst && (o.P.Created < e.P.Created || (o.P.Created == e.P.Created && o.P.ID < e.P.ID)) {
			ahead += o.P.Size
		}
	}
	return ahead
}

// FuzzStoreEvict runs random inserts (mixed sizes, destinations,
// creation-time ties and Own flags, plus duplicate inserts) and removes
// against a reference that keeps a plain list of live entries. On an
// insert that overflows, the reference scores every unprotected entry
// with its bytes ahead recomputed from scratch and evicts the lowest
// (utility, ID) prefix until the packet fits, or every unprotected
// entry when it cannot. After every operation the store must agree
// with the reference on the result, the victims, the ahead each scored
// entry received, Used, BytesFor and the destination queues.
func FuzzStoreEvict(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := evictStream(data)
		const dsts = 4
		capacity := 100 + 2*int64(in.intn(256))
		s := New(capacity)
		var live []*Entry
		var used int64
		next := packet.ID(1)
		for op := 0; op < 96 && len(in) > 0; op++ {
			switch in.intn(6) {
			case 0, 1, 2, 3: // insert a fresh packet
				p := &packet.Packet{
					ID: next, Dst: packet.NodeID(in.intn(dsts)),
					Size: evictSizes[in.intn(len(evictSizes))], Created: float64(in.intn(8)),
				}
				next++
				e := &Entry{P: p, Own: in.intn(5) == 0}

				want, wantVictims, wantAhead := refInsert(live, used, capacity, e)
				gotAhead := map[packet.ID]int64{}
				util := func(x *Entry, ahead int64) float64 {
					if _, dup := gotAhead[x.P.ID]; dup {
						t.Fatalf("op %d: entry %d scored twice in one insert", op, x.P.ID)
					}
					if x.Own {
						t.Fatalf("op %d: protected entry %d scored", op, x.P.ID)
					}
					gotAhead[x.P.ID] = ahead
					return evictUtil(x, ahead)
				}
				before := slices.Clone(s.Entries())
				if got := s.Insert(e, util); got != want {
					t.Fatalf("op %d: insert %d (size %d, used %d of %d) = %v, reference %v", op, p.ID, p.Size, used, capacity, got, want)
				}
				var gotVictims []packet.ID
				for _, o := range before {
					if !s.Has(o.P.ID) {
						gotVictims = append(gotVictims, o.P.ID)
					}
				}
				slices.Sort(gotVictims)
				if !slices.Equal(gotVictims, wantVictims) {
					t.Fatalf("op %d: insert %d evicted %v, reference %v", op, p.ID, gotVictims, wantVictims)
				}
				if len(gotAhead) != len(wantAhead) {
					t.Fatalf("op %d: insert %d scored %d entries, reference %d", op, p.ID, len(gotAhead), len(wantAhead))
				}
				for id, a := range wantAhead {
					if g, ok := gotAhead[id]; !ok || g != a {
						t.Fatalf("op %d: entry %d scored with ahead %d (scored %v), reference %d", op, id, g, ok, a)
					}
				}
				live = slices.DeleteFunc(live, func(o *Entry) bool { return !s.Has(o.P.ID) })
				if want {
					live = append(live, e)
				}
			case 4: // insert a duplicate of a live packet: a no-op
				if len(live) > 0 {
					o := live[in.intn(len(live))]
					dup := &Entry{P: &packet.Packet{ID: o.P.ID, Dst: o.P.Dst, Size: 1, Created: o.P.Created}}
					if !s.Insert(dup, evictUtil) || s.Get(o.P.ID) != o {
						t.Fatalf("op %d: duplicate insert of %d changed the store", op, o.P.ID)
					}
				}
			case 5: // remove a live packet
				if len(live) > 0 {
					i := in.intn(len(live))
					if !s.Remove(live[i].P.ID) {
						t.Fatalf("op %d: remove of live %d failed", op, live[i].P.ID)
					}
					live = slices.Delete(live, i, i+1)
				}
			}
			used = 0
			for _, o := range live {
				used += o.P.Size
			}
			compareStore(t, op, s, live, used, dsts)
		}
	})
}

// refInsert is the reference eviction: whether e is stored, the sorted
// victim IDs, and the bytes ahead of every scored entry.
func refInsert(live []*Entry, used, capacity int64, e *Entry) (bool, []packet.ID, map[packet.ID]int64) {
	ahead := map[packet.ID]int64{}
	need := e.P.Size
	if need > capacity {
		return false, nil, ahead
	}
	if used+need <= capacity {
		return true, nil, ahead
	}
	type cand struct {
		e *Entry
		u float64
	}
	var cands []cand
	for _, o := range live {
		if !o.Own {
			a := refAhead(live, o)
			ahead[o.P.ID] = a
			cands = append(cands, cand{o, evictUtil(o, a)})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.e.P.ID, b.e.P.ID)
	})
	var victims []packet.ID
	for _, c := range cands {
		if used+need <= capacity {
			break
		}
		victims = append(victims, c.e.P.ID)
		used -= c.e.P.Size
	}
	slices.Sort(victims)
	return used+need <= capacity, victims, ahead
}

// compareStore fails t unless s holds exactly the live entries, with
// matching Used, per-destination byte totals and delivery-ordered
// queues.
func compareStore(t *testing.T, op int, s *Store, live []*Entry, used int64, dsts int) {
	t.Helper()
	if s.Len() != len(live) || s.Used() != used {
		t.Fatalf("op %d: store holds %d entries, %d bytes; reference %d, %d", op, s.Len(), s.Used(), len(live), used)
	}
	for _, o := range live {
		if s.Get(o.P.ID) != o {
			t.Fatalf("op %d: live entry %d missing", op, o.P.ID)
		}
	}
	for d := packet.NodeID(0); d < packet.NodeID(dsts); d++ {
		var q []*Entry
		var bytes int64
		for _, o := range live {
			if o.P.Dst == d {
				q = append(q, o)
				bytes += o.P.Size
			}
		}
		slices.SortFunc(q, func(a, b *Entry) int {
			if c := cmp.Compare(a.P.Created, b.P.Created); c != 0 {
				return c
			}
			return cmp.Compare(a.P.ID, b.P.ID)
		})
		if got := s.BytesFor(d); got != bytes {
			t.Fatalf("op %d: BytesFor(%d) = %d, reference %d", op, d, got, bytes)
		}
		if got := s.Queue(d); !slices.Equal(got, q) {
			t.Fatalf("op %d: queue %d has %d entries, reference %d (or order differs)", op, d, len(got), len(q))
		}
	}
}
