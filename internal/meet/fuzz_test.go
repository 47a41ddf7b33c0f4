package meet

import (
	"math"
	"testing"

	"rapid/internal/packet"
	"rapid/internal/stat"
)

// fuzzNodes is the node universe the merge fuzzer draws IDs from; the
// estimators under test are node 0.
const fuzzNodes = 6

// refMatrix is the naive reference model: a map of maps holding every
// known owner's table, plus node 0's own moving averages.
type refMatrix struct {
	tables   map[packet.NodeID]map[packet.NodeID]float64
	direct   map[packet.NodeID]*stat.MovingAverage
	lastSeen map[packet.NodeID]float64
}

func (r *refMatrix) observe(peer packet.NodeID, now float64) {
	if peer == 0 {
		return
	}
	ma := r.direct[peer]
	if ma == nil {
		ma = &stat.MovingAverage{}
		r.direct[peer] = ma
	}
	ma.Observe(now - r.lastSeen[peer])
	r.lastSeen[peer] = now
	if r.tables[0] == nil {
		r.tables[0] = map[packet.NodeID]float64{}
	}
	r.tables[0][peer] = ma.Value()
}

// expected is the brute-force h-hop shortest path over the symmetric
// optimistic-min matrix.
func (r *refMatrix) expected(from, to, hops int) float64 {
	w := make([][]float64, fuzzNodes)
	for i := range w {
		w[i] = make([]float64, fuzzNodes)
		for j := range w[i] {
			w[i][j] = math.Inf(1)
		}
	}
	for owner, t := range r.tables {
		for peer, d := range t {
			if owner != peer && d < w[owner][peer] {
				w[owner][peer] = d
				w[peer][owner] = d
			}
		}
	}
	return bruteShortest(w, from, to, hops)
}

// fuzzOps decodes a byte string into estimator operations.
type fuzzOps struct {
	data []byte
	pos  int
}

func (o *fuzzOps) next() byte {
	if o.pos >= len(o.data) {
		return 0
	}
	b := o.data[o.pos]
	o.pos++
	return b
}

func (o *fuzzOps) weight() float64 { return 1 + float64(o.next())/7 }

// FuzzMeetMerge drives random ObserveMeeting / MergeTable /
// MergeTableFrom sequences through two estimators — one fed map tables,
// one fed another estimator's rows — with rows that grow, shrink, turn
// empty, come from owners the source does not know, and try to
// overwrite the estimator's own table. After every operation both must
// match the reference bit for bit on every Expected pair and on RowLen.
func FuzzMeetMerge(f *testing.F) {
	f.Add([]byte{2, 0, 1, 10, 1, 1, 0x3e, 20, 30, 40, 50, 60, 1, 2, 0x05, 7, 9})
	f.Add([]byte{0, 1, 2, 0x3f, 1, 2, 3, 4, 5, 6, 2, 2, 3, 9, 2, 2, 3, 9, 3, 2})
	f.Add([]byte{3, 0, 3, 5, 1, 0, 0x0f, 1, 1, 1, 1, 1, 0, 3, 7, 2, 4, 1, 0, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		hops := 1 + int(ops.next()%4)
		byMap, byRow := New(0, hops), New(0, hops)
		ref := &refMatrix{
			tables:   map[packet.NodeID]map[packet.NodeID]float64{},
			direct:   map[packet.NodeID]*stat.MovingAverage{},
			lastSeen: map[packet.NodeID]float64{},
		}
		now := 0.0
		for step := 0; step < 64 && ops.pos < len(data); step++ {
			kind := ops.next() % 4
			owner := packet.NodeID(ops.next() % fuzzNodes)
			var tbl Table // nil = ObserveMeeting
			switch kind {
			case 0:
				now += 1 + float64(ops.next())
				byMap.ObserveMeeting(owner, now)
				byRow.ObserveMeeting(owner, now)
				ref.observe(owner, now)
			case 1: // a whole new table
				tbl = Table{}
				mask := ops.next()
				for p := 0; p < fuzzNodes; p++ {
					if mask&(1<<p) != 0 {
						tbl[packet.NodeID(p)] = ops.weight()
					}
				}
			case 2: // the stored table with one entry added, moved or removed
				tbl = Table{}
				for p, d := range ref.tables[owner] {
					tbl[p] = d
				}
				p := packet.NodeID(ops.next() % fuzzNodes)
				if _, ok := tbl[p]; ok && ops.next()%2 == 0 {
					delete(tbl, p)
				} else {
					tbl[p] = ops.weight()
				}
			case 3: // gossip from a source that never heard of owner
				tbl = Table{}
			}
			if tbl != nil {
				byMap.MergeTable(owner, tbl)
				src := New(fuzzNodes, hops)
				if kind != 3 {
					src.MergeTable(owner, tbl)
				}
				byRow.MergeTableFrom(src, owner)
				if owner != 0 {
					ref.tables[owner] = tbl
				}
			}
			for _, c := range []struct {
				name string
				e    *Estimator
			}{{"MergeTable", byMap}, {"MergeTableFrom", byRow}} {
				name, e := c.name, c.e
				for id := packet.NodeID(-1); id <= fuzzNodes; id++ {
					n, known := e.RowLen(id)
					want, wantKnown := ref.tables[id]
					if n != len(want) || known != wantKnown {
						t.Fatalf("step %d %s: RowLen(%d)=(%d,%v) want (%d,%v)", step, name, id, n, known, len(want), wantKnown)
					}
				}
				for from := 0; from < fuzzNodes; from++ {
					for to := 0; to < fuzzNodes; to++ {
						got := e.Expected(packet.NodeID(from), packet.NodeID(to))
						want := ref.expected(from, to, hops)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("step %d %s: Expected(%d,%d)=%v want %v", step, name, from, to, got, want)
						}
					}
				}
			}
		}
	})
}

func TestMergeTableFromAllocs(t *testing.T) {
	// Gossip-shaped: node 1's ten-entry table re-merged after one of its
	// meetings moved a single entry.
	src, dst := New(1, 3), New(0, 3)
	for p := packet.NodeID(2); p < 12; p++ {
		src.ObserveMeeting(p, float64(10*p))
	}
	dst.MergeTableFrom(src, 1)
	now := 200.0
	allocs := testing.AllocsPerRun(100, func() {
		now += 10
		src.ObserveMeeting(5, now)
		before := dst.Version()
		dst.MergeTableFrom(src, 1)
		if dst.Version() == before {
			t.Fatal("changed entry did not bump the version")
		}
	})
	if allocs != 0 {
		t.Errorf("warmed merge allocates %v times per run, want 0", allocs)
	}
	want, _ := lookup(src.rows[1], 5)
	if got := dst.Expected(1, 5); got != want {
		t.Errorf("merged estimate %v want %v", got, want)
	}
}

func TestExpectedRecyclesMemo(t *testing.T) {
	e := New(0, 3)
	for p := packet.NodeID(1); p < 8; p++ {
		e.ObserveMeeting(p, float64(10*p))
		e.MergeTable(p, Table{p + 1: float64(p), (p + 2) % 8: 5})
	}
	now := 100.0
	allocs := testing.AllocsPerRun(100, func() {
		now += 7
		e.ObserveMeeting(3, now) // version bump
		for from := packet.NodeID(0); from < 8; from++ {
			_ = e.Expected(from, 7)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Expected after a version bump allocates %v times per run, want 0", allocs)
	}
	// The recycled rows must hold fresh distances, not stale ones.
	w := make([][]float64, e.n)
	for u := range w {
		w[u] = make([]float64, e.n)
		for v := range w[u] {
			w[u][v] = math.Inf(1)
		}
		for _, ed := range e.adj[u] {
			w[u][ed.to] = ed.w
		}
	}
	for from := 0; from < 8; from++ {
		if got, want := e.Expected(packet.NodeID(from), 7), bruteShortest(w, from, 7, 3); got != want {
			t.Errorf("Expected(%d,7)=%v want %v", from, got, want)
		}
	}
}
