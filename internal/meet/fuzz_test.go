package meet

import (
	"fmt"
	"math"
	"testing"

	"rapid/internal/packet"
	"rapid/internal/stat"
)

// fuzzNodes is the node universe the merge fuzzer draws IDs from; the
// estimators under test are node 0.
const fuzzNodes = 6

// refMatrix is the naive reference model: a map of maps holding every
// known owner's table, plus node self's own moving averages.
type refMatrix struct {
	self     packet.NodeID
	tables   map[packet.NodeID]map[packet.NodeID]float64
	direct   map[packet.NodeID]*stat.MovingAverage
	lastSeen map[packet.NodeID]float64
}

func newRefMatrix(self packet.NodeID) *refMatrix {
	return &refMatrix{
		self:     self,
		tables:   map[packet.NodeID]map[packet.NodeID]float64{},
		direct:   map[packet.NodeID]*stat.MovingAverage{},
		lastSeen: map[packet.NodeID]float64{},
	}
}

func (r *refMatrix) observe(peer packet.NodeID, now float64) {
	if peer == r.self {
		return
	}
	ma := r.direct[peer]
	if ma == nil {
		ma = &stat.MovingAverage{}
		r.direct[peer] = ma
	}
	ma.Observe(now - r.lastSeen[peer])
	r.lastSeen[peer] = now
	if r.tables[r.self] == nil {
		r.tables[r.self] = map[packet.NodeID]float64{}
	}
	r.tables[r.self][peer] = ma.Value()
}

// weights is the symmetric optimistic-min matrix over the fuzz node
// universe.
func (r *refMatrix) weights() [][]float64 {
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
	return w
}

// check compares e with the reference bit for bit on RowLen for every
// owner and on Expected for every pair, against the brute-force h-hop
// shortest path over the reference's weights.
func (r *refMatrix) check(t *testing.T, e *Estimator, hops int, what string) {
	t.Helper()
	for id := packet.NodeID(-1); id <= fuzzNodes; id++ {
		n, known := e.RowLen(id)
		want, wantKnown := r.tables[id]
		if n != len(want) || known != wantKnown {
			t.Fatalf("%s: RowLen(%d)=(%d,%v) want (%d,%v)", what, id, n, known, len(want), wantKnown)
		}
	}
	w := r.weights()
	for from := 0; from < fuzzNodes; from++ {
		for to := 0; to < fuzzNodes; to++ {
			got := e.Expected(packet.NodeID(from), packet.NodeID(to))
			want := bruteShortest(w, from, to, hops)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Expected(%d,%d)=%v want %v", what, from, to, got, want)
			}
		}
	}
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
		ref := newRefMatrix(0)
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
			what := fmt.Sprintf("step %d", step)
			ref.check(t, byMap, hops, what+" MergeTable")
			ref.check(t, byRow, hops, what+" MergeTableFrom")
		}
	})
}

// FuzzSharedRows drives 3–6 estimators that gossip rows among
// themselves through MergeTableFrom — multi-hop, and back toward the
// owner — while owners keep meeting after their row has been shared,
// mixed with map merges that carve private copies next to the shared
// snapshots. After every operation each estimator must match its own
// map reference bit for bit on every Expected pair and on RowLen: a
// snapshot that changes under a receiver, or an own row a merge writes
// through, shows up as a mismatch.
func FuzzSharedRows(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 10, 1, 1, 0, 0x80, 0, 1, 0, 20, 1, 2, 1, 0, 0, 0, 3, 15})
	f.Add([]byte{3, 2, 0, 1, 2, 5, 0, 2, 3, 9, 1, 1, 0, 0x80, 1, 2, 1, 0x00, 1, 0, 2, 0x80, 0, 1, 0, 7, 1, 0, 1, 0x00})
	f.Add([]byte{0, 0, 2, 2, 0x2b, 4, 4, 4, 1, 0, 2, 0x02, 0, 2, 1, 3, 1, 1, 0, 0x02, 2, 0, 0x2b, 9, 9, 9, 1, 2, 1, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		n := 3 + int(ops.next()%4)
		hops := 1 + int(ops.next()%4)
		ests := make([]*Estimator, n)
		refs := make([]*refMatrix, n)
		for i := range ests {
			ests[i] = New(packet.NodeID(i), hops)
			refs[i] = newRefMatrix(packet.NodeID(i))
		}
		now := 0.0
		for step := 0; step < 64 && ops.pos < len(data); step++ {
			kind := ops.next() % 3
			i := int(ops.next()) % n
			switch kind {
			case 0: // i meets a peer (possibly after sharing its row)
				peer := packet.NodeID(ops.next() % fuzzNodes)
				now += 1 + float64(ops.next())
				ests[i].ObserveMeeting(peer, now)
				refs[i].observe(peer, now)
			case 1: // i gossips to j: its own row when the top bit is set
				j := int(ops.next()) % n
				b := ops.next()
				owner := packet.NodeID(b % fuzzNodes)
				if b&0x80 != 0 {
					owner = packet.NodeID(i)
				}
				ests[j].MergeTableFrom(ests[i], owner)
				if i != j && owner != packet.NodeID(j) {
					tbl := map[packet.NodeID]float64{}
					for p, d := range refs[i].tables[owner] {
						tbl[p] = d
					}
					refs[j].tables[owner] = tbl
				}
			case 2: // a map merge into i
				owner := packet.NodeID(ops.next() % fuzzNodes)
				tbl := Table{}
				mask := ops.next()
				for p := 0; p < fuzzNodes; p++ {
					if mask&(1<<p) != 0 {
						tbl[packet.NodeID(p)] = ops.weight()
					}
				}
				ests[i].MergeTable(owner, tbl)
				if owner != packet.NodeID(i) {
					refs[i].tables[owner] = tbl
				}
			}
			for k, e := range ests {
				refs[k].check(t, e, hops, fmt.Sprintf("step %d estimator %d", step, k))
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
		before := dst.version
		dst.MergeTableFrom(src, 1)
		if dst.version == before {
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
