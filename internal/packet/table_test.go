package packet

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// tableEdgeIDs are the IDs the differential checks favour: both edges
// of the first pages, the top of the ID range, and the first IDs
// outside it on either side.
var tableEdgeIDs = []ID{0, 1, 1023, 1024, 1025, 2047, 2048, MaxID - tablePageSize, MaxID - 1, MaxID, -1}

// Operations of the table differential.
const (
	opSet = iota
	opDelete
	opGet
	numTableOps
)

// tableDiff drives a Table and a map through the same operations and
// fails on the first disagreement. Every Set stores a fresh value, so
// repeated sets of one ID are told apart.
type tableDiff struct {
	t   *testing.T
	tab Table[int]
	ref map[ID]*int
	n   int
}

func newTableDiff(t *testing.T) *tableDiff {
	return &tableDiff{t: t, ref: map[ID]*int{}}
}

func (d *tableDiff) apply(op int, id ID) {
	d.t.Helper()
	d.n++
	switch op {
	case opSet:
		v := new(int)
		*v = d.n
		if id < 0 || id >= MaxID {
			d.wantPanic(id, v)
			break
		}
		d.tab.Set(id, v)
		d.ref[id] = v
	case opDelete:
		d.tab.Delete(id)
		delete(d.ref, id)
	}
	if got, want := d.tab.Get(id), d.ref[id]; got != want {
		d.t.Fatalf("op %d on %d: Get = %p, map holds %p", d.n, id, got, want)
	}
}

// wantPanic checks that Set refuses an ID outside [0, MaxID).
func (d *tableDiff) wantPanic(id ID, v *int) {
	d.t.Helper()
	defer func() {
		if recover() == nil {
			d.t.Fatalf("Set(%d) did not panic", id)
		}
	}()
	d.tab.Set(id, v)
}

// check compares every entry and the page bookkeeping: a directory
// entry has a page exactly when the map holds an ID in its range, each
// page counts its entries exactly in whichever form it is in, a sparse
// page's mask and ranks agree with its packed entries and it holds no
// more than tableDenseAt of them, and the spares are empty.
func (d *tableDiff) check() {
	d.t.Helper()
	for id, want := range d.ref {
		if got := d.tab.Get(id); got != want {
			d.t.Fatalf("Get(%d) = %p, map holds %p", id, got, want)
		}
	}
	pages := map[int]int{}
	for id := range d.ref {
		pages[int(id>>tablePageBits)]++
	}
	for p, e := range d.tab.dir {
		if e.sparse == nil {
			if e.dense != nil || pages[p] != 0 {
				d.t.Fatalf("page %d: no count, dense %v, map holds %d", p, e.dense != nil, pages[p])
			}
			continue
		}
		pg := e.sparse
		set := 0
		if e.dense != nil {
			for _, v := range e.dense {
				if v != nil {
					set++
				}
			}
		} else {
			set = len(pg.vals)
			if pg.live > tableDenseAt {
				d.t.Fatalf("page %d sparse with %d entries", p, pg.live)
			}
			rank := 0
			for w, word := range pg.set {
				if int(pg.rank[w]) != rank {
					d.t.Fatalf("page %d: rank[%d] = %d, want %d", p, w, pg.rank[w], rank)
				}
				rank += bits.OnesCount64(word)
			}
			if rank != set || slices.Contains(pg.vals, nil) {
				d.t.Fatalf("page %d: mask holds %d, %d packed entries (nil among them: %v)", p, rank, set, slices.Contains(pg.vals, nil))
			}
		}
		if set == 0 || set != pg.live || set != pages[p] {
			d.t.Fatalf("page %d: %d entries set, live %d, map holds %d", p, set, pg.live, pages[p])
		}
	}
	if sp := d.tab.spareDense; sp != nil && slices.ContainsFunc(sp[:], func(v *int) bool { return v != nil }) {
		d.t.Fatal("spare dense page holds an entry")
	}
	if sp := d.tab.spareSparse; sp != nil && (sp.live != 0 || len(sp.vals) != 0 || sp.set != [tableWords]uint64{} || sp.rank != [tableWords]uint16{}) {
		d.t.Fatal("spare sparse page holds an entry")
	}
}

func TestTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := newTableDiff(t)
	for i := 0; i < 20000; i++ {
		var id ID
		// Four pages fill up and turn dense; sixty more stay sparse.
		switch r.Intn(4) {
		case 0:
			id = tableEdgeIDs[r.Intn(len(tableEdgeIDs))]
		case 1:
			id = ID(r.Intn(64 * tablePageSize))
		default:
			id = ID(r.Intn(4 * tablePageSize))
		}
		// More sets than deletes, so pages both fill and drain.
		op := []int{opSet, opSet, opSet, opDelete, opDelete, opGet}[r.Intn(6)]
		d.apply(op, id)
		if i%1000 == 0 {
			d.check()
		}
	}
	d.check()
	// Drain everything: every page must go.
	for id := range d.ref {
		d.apply(opDelete, id)
	}
	d.check()
	for p, e := range d.tab.dir {
		if e != (tableDir[int]{}) {
			t.Fatalf("page %d survives an empty table", p)
		}
	}
	if d.tab.spareDense == nil || d.tab.spareSparse == nil {
		t.Fatal("a drained table keeps no spare of some form")
	}
}

func TestTableEdgeIDs(t *testing.T) {
	d := newTableDiff(t)
	for _, id := range tableEdgeIDs {
		d.apply(opGet, id)
		d.apply(opDelete, id) // absent: a no-op
		d.apply(opSet, id)
		d.apply(opSet, id) // repeated: replaces
	}
	d.check()
	for _, id := range tableEdgeIDs {
		d.apply(opDelete, id)
		d.apply(opDelete, id)
	}
	d.check()
}

func TestTableSparsePageReleasedToSpare(t *testing.T) {
	var tab Table[int]
	tab.Set(5, new(int))
	tab.Set(6, new(int))
	pg := tab.dir[0].sparse
	tab.Delete(5)
	if tab.dir[0].sparse != pg || tab.spareSparse != nil {
		t.Fatal("page released while it still holds an entry")
	}
	tab.Delete(6)
	if tab.dir[0] != (tableDir[int]{}) || tab.spareSparse != pg {
		t.Fatal("emptied page not released as the spare")
	}
	tab.Set(2*tablePageSize+3, new(int))
	if tab.dir[2].sparse != pg || tab.spareSparse != nil {
		t.Fatal("next new page does not reuse the spare")
	}
	if got := pg.live; got != 1 {
		t.Fatalf("reused page counts %d entries, want 1", got)
	}
}

func TestTableDensePageReleasedToSpare(t *testing.T) {
	var tab Table[int]
	fill := func(page int) {
		for i := 0; i <= tableDenseAt; i++ {
			tab.Set(ID(page*tablePageSize+3*i), new(int))
		}
	}
	fill(1)
	dense := tab.dir[1].dense
	if dense == nil || tab.dir[1].sparse.live != tableDenseAt+1 || tab.dir[1].sparse.vals != nil {
		t.Fatalf("page with %d entries is not dense", tableDenseAt+1)
	}
	for i := 0; i <= tableDenseAt; i++ {
		if tab.Get(ID(tablePageSize+3*i)) == nil {
			t.Fatalf("entry %d lost turning dense", tablePageSize+3*i)
		}
		tab.Delete(ID(tablePageSize + 3*i))
	}
	if tab.dir[1] != (tableDir[int]{}) || tab.spareDense != dense {
		t.Fatal("emptied dense page not released as the spare")
	}
	fill(3)
	if tab.dir[3].dense != dense || tab.spareDense != nil {
		t.Fatal("next dense page does not reuse the spare")
	}
}

// TestTableSparseMemory bounds what the two extreme IDs cost: the
// directory grown to MaxID plus two sparse pages. A table indexed flat
// by ID would allocate MaxID words (2 GiB) here, and one dense page
// 8 KiB more than the bound allows.
func TestTableSparseMemory(t *testing.T) {
	const dirBytes = MaxID / tablePageSize * int(unsafe.Sizeof(tableDir[int]{}))
	pageBytes := int(unsafe.Sizeof(sparsePage[int]{}))
	// Allocation rounds each object up to its size class, and each
	// page's packed entries are one more small object.
	bound := uint64(dirBytes + 2*(pageBytes*5/4+16) + 64)
	// TotalAlloc is process-wide, so take the least of a few trials to
	// keep other goroutines' allocations out of the reading.
	least := uint64(1<<64 - 1)
	for trial := 0; trial < 3; trial++ {
		var tab Table[int]
		a, b := new(int), new(int)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tab.Set(1, a)
		tab.Set(MaxID-1, b)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if tab.Get(1) != a || tab.Get(MaxID-1) != b {
			t.Fatal("entries lost")
		}
	}
	if least > bound {
		t.Fatalf("IDs 1 and MaxID-1 allocated %d bytes, want at most %d (directory %d + two pages of %d)",
			least, bound, dirBytes, pageBytes)
	}
}

// FuzzPacketTable runs the map differential on operations decoded from
// the fuzz input, three bytes each: the operation, then an ID that is
// either one of tableEdgeIDs or one of the first 224 × 256 IDs (56
// pages), so pages fill, turn dense, drain and reuse the spares.
func FuzzPacketTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newTableDiff(t)
		for ; len(data) >= 3; data = data[3:] {
			var id ID
			if data[1] < 32 {
				id = tableEdgeIDs[int(data[2])%len(tableEdgeIDs)]
			} else {
				id = ID(data[1]-32)<<8 | ID(data[2])
			}
			d.apply(int(data[0])%numTableOps, id)
		}
		d.check()
	})
}
