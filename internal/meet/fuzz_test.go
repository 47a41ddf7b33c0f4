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
	w := infMatrix(fuzzNodes)
	for owner, t := range r.tables {
		for peer, d := range t {
			addEntry(w, int(owner), int(peer), d)
		}
	}
	return w
}

// infMatrix returns an n×n matrix with no edges.
func infMatrix(n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = math.Inf(1)
		}
	}
	return w
}

// addEntry folds owner's table entry d for peer into the symmetric
// matrix w: the edge between two nodes is the minimum of the weights
// their two tables give each other, where a NaN or +Inf weight gives no
// arc and a self or negative peer no edge at all.
func addEntry(w [][]float64, owner, peer int, d float64) {
	if owner == peer || peer < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
		return
	}
	if d < w[owner][peer] {
		w[owner][peer] = d
		w[peer][owner] = d
	}
}

// check compares e with the reference bit for bit on RowLen for every
// owner and on Expected for every pair, against the brute-force h-hop
// shortest path over the reference's weights, and e's entry count with
// its rows.
func (r *refMatrix) check(t *testing.T, e *Estimator, hops int, what string) {
	t.Helper()
	entries := 0
	for _, row := range e.rows {
		entries += len(row)
	}
	if e.entries != entries {
		t.Fatalf("%s: entries %d, rows hold %d", what, e.entries, entries)
	}
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

// weight decodes one edge weight: bytes below 0xf0 give finite positive
// weights, the top sixteen NaN, +Inf and 0 in turn, so merged tables
// carry weights that make no arc and arcs that cost nothing.
func (o *fuzzOps) weight() float64 {
	b := o.next()
	if b < 0xf0 {
		return 1 + float64(b)/7
	}
	switch (b - 0xf0) % 3 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	}
	return 0
}

// table decodes a whole table: one weight for every fuzz node whose
// mask bit is set (the owner's own bit gives it a self peer) and, with
// bit 6, one for the negative peer -1.
func (o *fuzzOps) table() Table {
	tbl := Table{}
	mask := o.next()
	for p := 0; p < fuzzNodes; p++ {
		if mask&(1<<p) != 0 {
			tbl[packet.NodeID(p)] = o.weight()
		}
	}
	if mask&(1<<fuzzNodes) != 0 {
		tbl[-1] = o.weight()
	}
	return tbl
}

// FuzzMeetMerge drives random ObserveMeeting / MergeTable /
// MergeTableFrom sequences through two estimators — one fed map tables,
// one fed another estimator's rows — with rows that grow, shrink, turn
// empty, come from owners the source does not know, and try to
// overwrite the estimator's own table, with NaN, +Inf and 0 weights,
// self and negative peers, and two endpoint rows that disagree on their
// pair. After every operation both must match the reference bit for
// bit on every Expected pair and on RowLen.
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
				tbl = ops.table()
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

// relay copies src's table of owner into r, as a merge from src's
// estimator does; r keeps its own table and src relays nothing to
// itself.
func (r *refMatrix) relay(src *refMatrix, owner packet.NodeID) {
	if r == src || owner == r.self {
		return
	}
	tbl := map[packet.NodeID]float64{}
	for p, d := range src.tables[owner] {
		tbl[p] = d
	}
	r.tables[owner] = tbl
}

// FuzzSharedRows drives 3–6 estimators that gossip rows among
// themselves through MergeTableFrom — multi-hop, and back toward the
// owner — while owners keep meeting after their row has been shared,
// mixed with map merges that carve private copies next to the shared
// snapshots. A gossip whose op byte has the top bit set is answered
// with the receiver's own row and ends like an exchange, settling both
// estimators with two merges queued. After every operation each estimator must match its own
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
			op := ops.next()
			kind := op % 3
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
				refs[j].relay(refs[i], owner)
				if op&0x80 != 0 { // j answers with its own row, and the exchange ends
					ests[i].MergeTableFrom(ests[j], packet.NodeID(j))
					refs[i].relay(refs[j], packet.NodeID(j))
					ests[i].Settle()
					ests[j].Settle()
				}
			case 2: // a map merge into i
				owner := packet.NodeID(ops.next() % fuzzNodes)
				tbl := ops.table()
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
	// The recycled rows must hold fresh distances, not stale ones,
	// checked against the matrix rebuilt from the rows alone.
	w := rowMatrix(e)
	for from := 0; from < 8; from++ {
		if got, want := e.Expected(packet.NodeID(from), 7), bruteShortest(w, from, 7, 3); got != want {
			t.Errorf("Expected(%d,7)=%v want %v", from, got, want)
		}
	}
}

// rowMatrix rebuilds e's symmetric optimistic-min matrix from its rows
// alone.
func rowMatrix(e *Estimator) [][]float64 {
	w := infMatrix(e.n)
	for u, row := range e.rows {
		for _, ed := range row {
			addEntry(w, u, int(ed.to), ed.w)
		}
	}
	return w
}

// TestMovedPairsBounded: an estimator that merges gossip for many
// exchanges without being asked for an estimate keeps its queue of
// moved pairs bounded, drops it once it overflows, and then merges
// without allocating; the next estimate re-derives every reverse arc.
func TestMovedPairsBounded(t *testing.T) {
	const peers = 40
	src := make([]*Estimator, 4)
	for i := range src {
		src[i] = New(packet.NodeID(1+i), 3)
	}
	dst := New(0, 3)
	now := 0.0
	exchange := func() {
		for i, s := range src {
			now += 3
			// Each source meets a different peer, so both endpoint rows
			// of a pair disagree until the second one is merged.
			s.ObserveMeeting(packet.NodeID(5+(int(now)+i)%peers), now)
			dst.MergeTableFrom(s, s.self)
		}
	}
	check := func(what string) {
		t.Helper()
		w := rowMatrix(dst)
		for from := 0; from < dst.n; from++ {
			for to := 0; to < dst.n; to++ {
				got := dst.Expected(packet.NodeID(from), packet.NodeID(to))
				want := bruteShortest(w, from, to, 3)
				if from == to {
					want = 0
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Expected(%d,%d)=%v want %v", what, from, to, got, want)
				}
			}
		}
	}
	for range 10 {
		exchange()
	}
	if dst.moved != nil || !dst.stale {
		t.Fatalf("before the first estimate: %d pairs queued, stale %v; want none queued and stale", dst.queued(), dst.stale)
	}
	check("first estimate")
	// Sources' rows only grow here, so the bound never falls, and a
	// queue that overflows in an exchange held at least the bound before
	// it less one pair per source.
	overflowed := false
	for range 2000 {
		queued, limit := dst.queued(), dst.movedMax()
		exchange()
		switch {
		case dst.stale && !overflowed:
			overflowed = true
			if queued+len(src) < limit {
				t.Fatalf("queue dropped at %d pairs (+%d at most), below its bound %d", queued, len(src), limit)
			}
		case !dst.stale && dst.queued() > dst.movedMax():
			t.Fatalf("queue holds %d pairs, above its bound %d", dst.queued(), dst.movedMax())
		}
	}
	if !overflowed || dst.moved != nil {
		t.Fatalf("after 2000 exchanges: overflowed %v, queue held %v; want an overflow that handed the queue back", overflowed, dst.moved != nil)
	}
	// Relays hand out eight successive snapshots of node 1's row by
	// reference, so only the stale estimator's merges are measured.
	relays := make([]*Estimator, 8)
	for k := range relays {
		now += 3
		src[0].ObserveMeeting(packet.NodeID(5+k), now)
		relays[k] = New(packet.NodeID(100+k), 3)
		relays[k].MergeTableFrom(src[0], 1)
	}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		k++
		dst.MergeTableFrom(relays[k%len(relays)], 1)
	}); allocs != 0 {
		t.Errorf("merges into a stale estimator allocate %v times per run, want 0", allocs)
	}
	check("after the overflow")
	exchange()
	if dst.queued() == 0 || dst.stale {
		t.Errorf("after an estimate: %d pairs queued, stale %v; want pairs queued again", dst.queued(), dst.stale)
	}
	check("queued again")
}
