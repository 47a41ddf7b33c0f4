package packet

import (
	"fmt"
	"math/bits"
	"slices"
)

// A Table page covers 1024 IDs. It stays sparse while it holds at most
// tableDenseAt entries and turns dense past that.
const (
	tablePageBits = 10
	tablePageSize = 1 << tablePageBits
	tableWords    = tablePageSize / 64
	tableDenseAt  = tablePageSize / 8
)

// Table maps packet IDs in [0, MaxID) to *T without hashing: a
// directory indexed by ID / 1024 whose entry holds the page for that
// range of IDs. A page is allocated on the first write into its range
// and released when its last entry is cleared; the table keeps one
// released page of each form as a spare, so a table whose few entries
// come and go does not reallocate.
//
// A page starts sparse: its entries packed in ID order behind a
// 1024-bit presence mask, found by a popcount, so a node that knows a
// few packets of a range pays 8 bytes per entry, not 8 KiB per page.
// Past tableDenseAt entries (1/8 of the range) the page turns dense: a
// plain 1024-slot array, one load per lookup and no shifting on
// insert. The directory grows to the highest page written, 16 bytes
// per 1024 IDs (4 MiB at MaxID). The zero value is an empty table.
type Table[T any] struct {
	dir         []tableDir[T]
	spareDense  *[tablePageSize]*T
	spareSparse *sparsePage[T]
}

// tableDir is one directory entry. sparse is non-nil while the range
// holds an entry: it counts them, and holds them until the page turns
// dense, after which they live in dense.
type tableDir[T any] struct {
	dense  *[tablePageSize]*T
	sparse *sparsePage[T]
}

// sparsePage holds a range's entry count and, while its page is sparse,
// the entries: bit i of set marks in-page offset i as present, and its
// entry is vals[rank[i/64] + popcount(set[i/64] below bit i)].
type sparsePage[T any] struct {
	live int
	set  [tableWords]uint64
	rank [tableWords]uint16
	vals []*T
}

// index returns where in-page offset i's entry is, or would be
// inserted, in vals, and whether it is present.
func (pg *sparsePage[T]) index(i uint64) (int, bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	return int(pg.rank[w]) + bits.OnesCount64(pg.set[w]&(bit-1)), pg.set[w]&bit != 0
}

// Get returns the entry for id, or nil. IDs outside [0, MaxID) are
// never set; Get never allocates.
func (t *Table[T]) Get(id ID) *T {
	p := uint64(id) >> tablePageBits
	if p >= uint64(len(t.dir)) {
		return nil
	}
	d := &t.dir[p]
	i := uint64(id) & (tablePageSize - 1)
	if d.dense != nil {
		return d.dense[i]
	}
	if pg := d.sparse; pg != nil {
		if r, ok := pg.index(i); ok {
			return pg.vals[r]
		}
	}
	return nil
}

// Set stores v, which must not be nil, as the entry for id. An ID
// outside [0, MaxID) panics: routing.Run rejects such packets at
// generation, so one reaching a table is a bug.
func (t *Table[T]) Set(id ID, v *T) {
	if id < 0 || id >= MaxID {
		panic(fmt.Sprintf("packet: table entry for packet %d outside [0,%d)", id, MaxID))
	}
	p := int(id >> tablePageBits)
	if p >= len(t.dir) {
		t.grow(p + 1)
	}
	d := &t.dir[p]
	i := uint64(id) & (tablePageSize - 1)
	if d.dense != nil {
		if d.dense[i] == nil {
			d.sparse.live++
		}
		d.dense[i] = v
		return
	}
	if d.sparse == nil {
		d.sparse, t.spareSparse = t.spareSparse, nil
		if d.sparse == nil {
			d.sparse = new(sparsePage[T])
		}
	}
	pg := d.sparse
	r, ok := pg.index(i)
	if ok {
		pg.vals[r] = v
		return
	}
	if pg.live++; pg.live > tableDenseAt {
		t.densify(d)
		d.dense[i] = v
		return
	}
	pg.vals = slices.Insert(pg.vals, r, v)
	pg.set[i>>6] |= 1 << (i & 63)
	for w := i>>6 + 1; w < tableWords; w++ {
		pg.rank[w]++
	}
}

// grow extends the directory to n entries. A reallocation doubles the
// capacity, but never past the MaxID/1024 entries any ID can reach. The
// directory never shrinks, so entries past its length are still zero.
func (t *Table[T]) grow(n int) {
	if n > cap(t.dir) {
		dir := make([]tableDir[T], len(t.dir), max(n, min(2*cap(t.dir), MaxID>>tablePageBits)))
		copy(dir, t.dir)
		t.dir = dir
	}
	t.dir = t.dir[:n]
}

// densify moves a sparse page's entries into a dense array, leaving
// the sparse page as the range's entry count.
func (t *Table[T]) densify(d *tableDir[T]) {
	d.dense, t.spareDense = t.spareDense, nil
	if d.dense == nil {
		d.dense = new([tablePageSize]*T)
	}
	pg := d.sparse
	k := 0
	for w, word := range pg.set {
		for ; word != 0; word &= word - 1 {
			d.dense[w<<6|bits.TrailingZeros64(word)] = pg.vals[k]
			k++
		}
	}
	pg.set, pg.rank, pg.vals = [tableWords]uint64{}, [tableWords]uint16{}, nil
}

// Delete clears the entry for id, if any, releasing its page when it
// was the page's last entry.
func (t *Table[T]) Delete(id ID) {
	p := uint64(id) >> tablePageBits
	if p >= uint64(len(t.dir)) || t.dir[p].sparse == nil {
		return
	}
	d := &t.dir[p]
	pg := d.sparse
	i := uint64(id) & (tablePageSize - 1)
	if d.dense != nil {
		if d.dense[i] == nil {
			return
		}
		d.dense[i] = nil
	} else {
		r, ok := pg.index(i)
		if !ok {
			return
		}
		pg.vals = slices.Delete(pg.vals, r, r+1)
		pg.set[i>>6] &^= 1 << (i & 63)
		for w := i>>6 + 1; w < tableWords; w++ {
			pg.rank[w]--
		}
	}
	if pg.live--; pg.live > 0 {
		return
	}
	// Every entry is clear, so both forms are empty and reusable.
	if d.dense != nil {
		t.spareDense = d.dense
	}
	t.spareSparse = pg
	*d = tableDir[T]{}
}
