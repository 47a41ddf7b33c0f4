package meet

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"rapid/internal/packet"
)

func TestObserveMeetingBuildsAverages(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 100) // gap 100 from virtual epoch meeting
	e.ObserveMeeting(1, 300) // gap 200
	tbl := e.DirectTable()
	if got := tbl[1]; got != 150 {
		t.Errorf("avg gap %v want 150", got)
	}
	if got := e.Expected(0, 1); got != 150 {
		t.Errorf("Expected(0,1)=%v want 150", got)
	}
	// Self-meetings are ignored; self expected time is 0.
	e.ObserveMeeting(0, 400)
	if got := e.Expected(0, 0); got != 0 {
		t.Errorf("Expected(0,0)=%v want 0", got)
	}
}

func TestExpectedUnknownIsInf(t *testing.T) {
	e := New(0, 3)
	if got := e.Expected(0, 9); !math.IsInf(got, 1) {
		t.Errorf("unknown peer: %v want +Inf", got)
	}
}

func TestTransitiveEstimateTwoHops(t *testing.T) {
	// X(0) meets Y(1) every 100 s; Y meets Z(2) every 50 s. X never
	// meets Z directly: the 2-hop estimate is 150 s (paper's example).
	e := New(0, 3)
	e.ObserveMeeting(1, 100)
	e.ObserveMeeting(1, 200) // avg 100
	e.MergeTable(1, Table{2: 50})
	if got := e.Expected(0, 2); got != 150 {
		t.Errorf("two-hop expected %v want 150", got)
	}
}

func TestHopBoundRestrictsPaths(t *testing.T) {
	// Chain 0-1-2-3-4 each hop 10 s. With h=3, node 4 is unreachable
	// from 0 (needs 4 hops); with h=4 it is 40 s.
	build := func(h int) *Estimator {
		e := New(0, h)
		e.ObserveMeeting(1, 10)
		e.MergeTable(1, Table{0: 10, 2: 10})
		e.MergeTable(2, Table{1: 10, 3: 10})
		e.MergeTable(3, Table{2: 10, 4: 10})
		return e
	}
	e3 := build(3)
	if got := e3.Expected(0, 3); got != 30 {
		t.Errorf("3-hop distance %v want 30", got)
	}
	if got := e3.Expected(0, 4); !math.IsInf(got, 1) {
		t.Errorf("4-hop target with h=3: %v want +Inf", got)
	}
	e4 := build(4)
	if got := e4.Expected(0, 4); got != 40 {
		t.Errorf("4-hop distance with h=4: %v want 40", got)
	}
}

func TestDirectBeatsLongerPath(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 10)  // 0-1 avg 10
	e.ObserveMeeting(2, 100) // 0-2 avg 100
	e.MergeTable(1, Table{2: 5})
	// Path 0-1-2 costs 15 < direct 100.
	if got := e.Expected(0, 2); got != 15 {
		t.Errorf("min path %v want 15", got)
	}
}

func TestExpectedForThirdParties(t *testing.T) {
	// RAPID needs E(M_XjZ) for other replica holders Xj, computed from
	// the merged matrix.
	e := New(0, 3)
	e.MergeTable(5, Table{7: 42})
	if got := e.Expected(5, 7); got != 42 {
		t.Errorf("third-party expected %v want 42", got)
	}
	if got := e.Expected(7, 5); got != 42 {
		t.Errorf("symmetric lookup %v want 42", got)
	}
}

func TestEdgeWeightTakesOptimisticMin(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 80) // our view: 80
	e.MergeTable(1, Table{0: 60})
	if got := e.Expected(0, 1); got != 60 {
		t.Errorf("edge weight %v want min(80,60)=60", got)
	}
}

func TestMergeTableCopiesAndSelfIgnored(t *testing.T) {
	e := New(0, 3)
	src := Table{2: 10}
	e.MergeTable(1, src)
	src[2] = 999 // mutate caller's map
	if got := e.Expected(1, 2); got != 10 {
		t.Errorf("MergeTable must copy: %v", got)
	}
	e.ObserveMeeting(1, 50)
	e.MergeTable(0, Table{1: 1}) // attempts to overwrite own table
	if got := e.Expected(0, 1); got != 50 {
		t.Errorf("own table overwritten by merge: %v", got)
	}
}

func TestMemoInvalidation(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 100)
	if got := e.Expected(0, 1); got != 100 {
		t.Fatalf("first estimate %v", got)
	}
	e.ObserveMeeting(1, 200) // avg now 100, (100+100)/2
	if got := e.Expected(0, 1); got != 100 {
		t.Fatalf("second estimate %v", got)
	}
	e.ObserveMeeting(1, 800) // gaps 100,100,600 -> avg 266.67
	want := (100.0 + 100.0 + 600.0) / 3.0
	if got := e.Expected(0, 1); !almostEq(got, want, 1e-9) {
		t.Errorf("post-update estimate %v want %v", got, want)
	}
}

// Property: the estimator's h-hop expected meeting time matches a
// brute-force shortest-path-with-hop-bound computation on random
// matrices.
func TestExpectedIsShortestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(5)
		return propCheck(r, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func propCheck(r *rand.Rand, n int) bool {
	e := New(0, 3)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = math.Inf(1)
		}
	}
	for i := 0; i < n; i++ {
		t := Table{}
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.5 {
				d := 1 + r.Float64()*100
				t[packet.NodeID(j)] = d
				if d < w[i][j] {
					w[i][j] = d
					w[j][i] = d
				}
			}
		}
		if i == 0 {
			for id, d := range t {
				// Feed as direct observations: one gap of d.
				e.ObserveMeeting(id, d)
			}
		} else {
			e.MergeTable(packet.NodeID(i), t)
		}
	}
	// Brute force: min cost over paths with <= 3 edges.
	for dst := 1; dst < n; dst++ {
		want := bruteShortest(w, 0, dst, 3)
		got := e.Expected(0, packet.NodeID(dst))
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			return false
		}
		if !math.IsInf(want, 1) && !almostEq(got, want, 1e-9) {
			return false
		}
	}
	return true
}

func bruteShortest(w [][]float64, src, dst, hops int) float64 {
	n := len(w)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for h := 0; h < hops; h++ {
		next := append([]float64(nil), dist...)
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for v := 0; v < n; v++ {
				if u != v && dist[u]+w[u][v] < next[v] {
					next[v] = dist[u] + w[u][v]
				}
			}
		}
		dist = next
	}
	return dist[dst]
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestMergeTableFromShares: a merged row is the source's published
// snapshot itself, relayed onward by reference, and a later meeting at
// the source leaves the receivers' rows and versions alone.
func TestMergeTableFromShares(t *testing.T) {
	src, dst, relay := New(1, 3), New(0, 3), New(2, 3)
	for p := packet.NodeID(3); p < 8; p++ {
		src.ObserveMeeting(p, float64(10*p))
	}
	dst.MergeTableFrom(src, 1)
	relay.MergeTableFrom(dst, 1)
	snap := src.published
	if len(snap) != 5 || &dst.rows[1][0] != &snap[0] || &relay.rows[1][0] != &snap[0] {
		t.Fatal("merged rows do not alias the published snapshot")
	}
	if cap(snap) != len(snap) {
		t.Errorf("snapshot cap %d, want its length %d", cap(snap), len(snap))
	}
	want := append([]halfEdge(nil), dst.rows[1]...)
	ver := dst.version
	src.ObserveMeeting(4, 500) // moves an entry in place
	src.ObserveMeeting(9, 600) // inserts one
	if !slices.Equal(dst.rows[1], want) || !slices.Equal(relay.rows[1], want) {
		t.Errorf("receiver rows changed under a source meeting: %v, %v want %v", dst.rows[1], relay.rows[1], want)
	}
	if dst.version != ver {
		t.Errorf("receiver version moved %d -> %d without a merge", ver, dst.version)
	}
	dst.MergeTableFrom(src, 1)
	if got, _ := dst.RowLen(1); got != 6 || &dst.rows[1][0] != &src.published[0] {
		t.Errorf("re-merge installed %d entries (want 6) or did not take the new snapshot", got)
	}
}

// TestPublishOnlyWhenChanged: meetings alone publish nothing (the
// ControlNone and CGR runs), and repeated merges of an unchanged own
// row publish it once.
func TestPublishOnlyWhenChanged(t *testing.T) {
	src := New(1, 3)
	for i := 0; i < 50; i++ {
		src.ObserveMeeting(packet.NodeID(2+i%7), float64(10*i))
	}
	if st := src.Stats(); st.RowsPublished != 0 || cap(src.slab) != 0 {
		t.Fatalf("meetings alone published %d rows into a %d-entry slab", st.RowsPublished, cap(src.slab))
	}
	dsts := []*Estimator{New(0, 3), New(8, 3), New(9, 3)}
	for round := 0; round < 3; round++ {
		for _, d := range dsts {
			d.MergeTableFrom(src, 1)
		}
	}
	if st := src.Stats(); st.RowsPublished != 1 {
		t.Errorf("unchanged row published %d times, want 1", st.RowsPublished)
	}
	src.ObserveMeeting(3, 1000)
	for _, d := range dsts {
		d.MergeTableFrom(src, 1)
	}
	if st := src.Stats(); st.RowsPublished != 2 {
		t.Errorf("after one meeting: %d publications, want 2", st.RowsPublished)
	}
	if st := dsts[0].Stats(); st.RowsMerged != 2 {
		t.Errorf("receiver installed %d rows, want 2 (equal re-merges are not installs)", st.RowsMerged)
	}
}

// TestStatsCount pins what each counter counts.
func TestStatsCount(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 10)                  // one pair
	e.MergeTable(1, Table{0: 5, 2: 7})       // two pairs
	e.MergeTable(1, Table{0: 5, 2: 7})       // equal: nothing
	e.MergeTable(2, Table{1: 7, 3: 1, 4: 2}) // three pairs
	_ = e.Expected(0, 3)
	_ = e.Expected(0, 4) // memo hit
	_ = e.Expected(1, 4)
	// Reverse arcs: 0→1 at 5 (our 10 is dearer), and 3→2, 4→2 (nodes 3
	// and 4 have no rows); 1–2 agree at 7 and need none.
	want := Stats{RowsMerged: 2, PairsMoved: 6, ShortestPaths: 2, ReverseArcs: 3}
	if got := e.Stats(); got != want {
		t.Errorf("Stats()=%+v want %+v", got, want)
	}
	var sum Stats
	sum.Add(want)
	sum.Add(Stats{RowsPublished: 1, ReverseArcs: 2})
	if sum.RowsPublished != 1 || sum.PairsMoved != 6 || sum.ReverseArcs != 5 {
		t.Errorf("Add: %+v", sum)
	}
}

// TestStateSizedByWhatWasMet: an estimator that knows 4,096 owners'
// rows but met only 3 peers holds 3 meeting logs, reverse arcs only
// where the rows disagree, one memo entry per source asked, and no
// queue of moved pairs once an exchange-end settle ran. Before its
// first estimate a settle does no reverse-arc work.
func TestStateSizedByWhatWasMet(t *testing.T) {
	const owners = 4096
	e := New(0, 3)
	for p := packet.NodeID(1); p <= 3; p++ {
		e.ObserveMeeting(p, float64(10*p))
	}
	// A ring over owners 1..4096 whose neighbours agree on their pair,
	// so the ring needs no reverse arc; only the three met peers' rows
	// give node 0 a cheaper weight than its own.
	for k := 1; k <= owners; k++ {
		tbl := Table{packet.NodeID(k%owners + 1): 7, packet.NodeID((k+owners-2)%owners + 1): 7}
		if k <= 3 {
			tbl[0] = 1
		}
		e.MergeTable(packet.NodeID(k), tbl)
	}
	if len(e.met) != 3 {
		t.Errorf("%d per-peer entries, want 3", len(e.met))
	}
	e.Settle() // never asked for an estimate: no reverse-arc work
	if !e.stale || len(e.rev) != 0 || e.moved != nil {
		t.Errorf("a settle before the first estimate left stale %v, %d reverse arcs, queue held %v", e.stale, len(e.rev), e.moved != nil)
	}
	for _, q := range []struct {
		from, to packet.NodeID
		want     float64
	}{
		{0, 4, 8}, {0, 5, 15}, {0, 6, math.Inf(1)}, {0, owners, 8},
		{1, owners, 7}, {2, 3, 2}, {1, 2, 2}, {2, owners - 1, 21},
	} {
		if got := e.Expected(q.from, q.to); got != q.want {
			t.Errorf("Expected(%d,%d)=%v want %v", q.from, q.to, got, q.want)
		}
	}
	if len(e.rev) != 3 || cap(e.rev) >= owners {
		t.Errorf("%d reverse arcs in a list of capacity %d, want 3 and no slot per node", len(e.rev), cap(e.rev))
	}
	for _, a := range e.rev {
		if u := a.key >> 32; u != 0 || a.w != 1 {
			t.Errorf("reverse arc %d→%d at %v, want only node 0's arcs at weight 1", u, uint32(a.key), a.w)
		}
	}
	if st := e.Stats(); len(e.memo) != 3 || st.ShortestPaths != 3 || st.ReverseArcs != 3 {
		t.Errorf("memo holds %d sources after %d searches and %d reverse arcs, want 3, 3 and 3", len(e.memo), st.ShortestPaths, st.ReverseArcs)
	}

	// One exchange: a meeting with peer 1 and a merge of peer 2's row,
	// which now prices node 0 dearer than node 0 prices it.
	e.ObserveMeeting(1, 100)
	e.MergeTable(2, Table{1: 7, 3: 7, 0: 50})
	if e.queued() == 0 {
		t.Fatal("the exchange queued no moved pair")
	}
	e.Settle()
	if e.moved != nil {
		t.Fatalf("%d pairs still queued after the exchange-end settle", e.queued())
	}
	settled := slices.Clone(e.rev)
	e.rederive()
	if !slices.Equal(settled, e.rev) {
		t.Errorf("settled reverse arcs %v, re-derived %v", settled, e.rev)
	}
	if i := searchArcFrom(e.rev, arcKey(2, 0), 0); i == len(e.rev) || e.rev[i] != (arc{arcKey(2, 0), 20}) {
		t.Errorf("no reverse arc 2→0 at node 0's own weight 20 in %v", e.rev)
	}
	if got := e.Expected(2, 0); got != 8 {
		t.Errorf("Expected(2,0)=%v want 8 (through node 3)", got)
	}
	if len(e.memo) != 1 {
		t.Errorf("memo holds %d sources after a version move and one estimate, want 1", len(e.memo))
	}
}

// TestSearchArcFromAnyHint: whatever the hint, the galloping search
// lands where a plain bisection does.
func TestSearchArcFromAnyHint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		lst := make([]arc, r.Intn(40))
		for i := range lst {
			lst[i].key = uint64(r.Intn(64))
		}
		slices.SortFunc(lst, func(a, b arc) int { return cmp.Compare(a.key, b.key) })
		lst = slices.CompactFunc(lst, func(a, b arc) bool { return a.key == b.key })
		for k := uint64(0); k <= 64; k++ {
			want, _ := slices.BinarySearchFunc(lst, k, func(a arc, k uint64) int { return cmp.Compare(a.key, k) })
			for hint := -1; hint <= len(lst)+1; hint++ {
				if got := searchArcFrom(lst, k, hint); got != want {
					t.Fatalf("searchArcFrom(%v, %d, hint %d) = %d, want %d", lst, k, hint, got, want)
				}
			}
		}
	}
}

// TestEstimatorsShareScratchConcurrently: estimators on several
// goroutines borrow the process-wide queues and relaxation scratch at
// once and still compute what one estimator alone does.
func TestEstimatorsShareScratchConcurrently(t *testing.T) {
	run := func(seed int64) []float64 {
		r := rand.New(rand.NewSource(seed))
		e := New(0, 3)
		var got []float64
		for step := 0; step < 200; step++ {
			owner := packet.NodeID(1 + r.Intn(30))
			e.ObserveMeeting(owner, float64(step+1))
			e.MergeTable(owner, Table{packet.NodeID(r.Intn(40)): 1 + r.Float64()*50, packet.NodeID(r.Intn(40)): 1 + r.Float64()*50})
			e.Settle()
			got = append(got, e.Expected(0, packet.NodeID(r.Intn(40))), e.Expected(owner, packet.NodeID(r.Intn(40))))
		}
		return got
	}
	const goroutines = 4
	want := make([][]float64, goroutines)
	for g := range want {
		want[g] = run(int64(g))
	}
	var wg sync.WaitGroup
	got := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(int64(g))
		}()
	}
	wg.Wait()
	for g := range want {
		if !slices.Equal(got[g], want[g]) {
			t.Errorf("goroutine %d: estimates differ from the lone run", g)
		}
	}
}
