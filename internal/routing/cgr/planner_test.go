package cgr

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rapid/internal/minheap"
	"rapid/internal/packet"
	"rapid/internal/trace"
)

// The reference planner below is the original map-based search —
// plan, its ban set and its frontier, kept verbatim apart from the
// receiver and type names — used as the differential oracle for the
// slice-based planner. It also keeps the original flattening of a
// schedule into windows and its own map index of them, so the oracle
// checks trace.ContactGraph as well as the search.

type refBanSet struct {
	parent *refBanSet
	wins   map[int]bool
	nodes  map[packet.NodeID]bool
}

func (b *refBanSet) winBanned(wi int) bool {
	for s := b; s != nil; s = s.parent {
		if s.wins[wi] {
			return true
		}
	}
	return false
}

func (b *refBanSet) nodeBanned(n packet.NodeID) bool {
	for s := b; s != nil; s = s.parent {
		if s.nodes[n] {
			return true
		}
	}
	return false
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].rank != q[j].rank {
		return q[i].rank < q[j].rank
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// refWindow is one transfer opportunity as the reference flattens it.
type refWindow struct {
	a, b       packet.NodeID
	start, end float64
	rate       float64 // bytes/s; 0 for a point meeting
	cap0       int64   // nominal capacity (serialization baseline)
	residual   int64   // capacity not yet reserved by planned routes
}

// refWindows flattens a schedule in execution rank: one window per
// meeting, in schedule order, then one per contact, each window's
// capacity shrunk to its in-horizon share.
func refWindows(s *trace.Schedule) []refWindow {
	var out []refWindow
	for _, m := range s.Meetings {
		out = append(out, refWindow{
			a: m.A, b: m.B, start: m.Time, end: m.Time,
			cap0: m.Bytes, residual: m.Bytes,
		})
	}
	for _, c := range s.Contacts {
		w := refWindow{a: c.A, b: c.B, start: c.Start, end: c.Start, cap0: c.Bytes, residual: c.Bytes}
		if c.Windowed() {
			end := c.EndWithin(s.Duration)
			w.cap0 = c.Capacity()
			if end < c.End() {
				if clipped := int64(c.RateBps * (end - c.Start)); clipped < w.cap0 {
					w.cap0 = clipped
				}
			}
			w.end = end
			w.rate = c.RateBps
			w.residual = w.cap0
		}
		out = append(out, w)
	}
	return out
}

type refPlanner struct {
	windows []refWindow
	byNode  map[packet.NodeID][]int
	capFor  func(packet.NodeID) int64
	resv    map[packet.NodeID][]reservation

	dist map[packet.NodeID]float64
	rank map[packet.NodeID]int
	prev map[packet.NodeID]hop
	done map[packet.NodeID]bool
}

func newRefPlanner(s *trace.Schedule, capFor func(packet.NodeID) int64) *refPlanner {
	pl := &refPlanner{
		windows: refWindows(s), byNode: map[packet.NodeID][]int{}, capFor: capFor,
		resv: map[packet.NodeID][]reservation{},
		dist: map[packet.NodeID]float64{}, rank: map[packet.NodeID]int{},
		prev: map[packet.NodeID]hop{}, done: map[packet.NodeID]bool{},
	}
	for i, w := range pl.windows {
		pl.byNode[w.a] = append(pl.byNode[w.a], i)
		pl.byNode[w.b] = append(pl.byNode[w.b], i)
	}
	for _, list := range pl.byNode {
		sort.Slice(list, func(i, j int) bool {
			wi, wj := &pl.windows[list[i]], &pl.windows[list[j]]
			if wi.start != wj.start {
				return wi.start < wj.start
			}
			return list[i] < list[j]
		})
	}
	return pl
}

// live returns the first window between a and b, in a's start order,
// that starts at now (within timeEps); -1 when none does.
func (pl *refPlanner) live(a, b packet.NodeID, now float64) int {
	for _, wi := range pl.byNode[a] {
		w := &pl.windows[wi]
		if !sameInstant(w.start, now) {
			continue
		}
		if (w.a == a && w.b == b) || (w.a == b && w.b == a) {
			return wi
		}
	}
	return -1
}

func (pl *refPlanner) occupied(node packet.NodeID, t float64, id packet.ID) int64 {
	var sum int64
	for _, r := range pl.resv[node] {
		if r.id != id && r.from <= t && t < r.to {
			sum += r.bytes
		}
	}
	return sum
}

func (pl *refPlanner) fitsBuffer(node packet.NodeID, t float64, p *packet.Packet) bool {
	if node == p.Dst {
		return true // delivered on arrival, never buffered
	}
	capacity := pl.capFor(node)
	if capacity <= 0 {
		return true
	}
	return pl.occupied(node, t, p.ID)+p.Size <= capacity
}

func (pl *refPlanner) plan(p *packet.Packet, from packet.NodeID, now float64, r0 int, ban *refBanSet) *route {
	dist, rank, prev, done := pl.dist, pl.rank, pl.prev, pl.done
	clear(dist)
	clear(rank)
	clear(prev)
	clear(done)
	dist[from] = now
	rank[from] = r0
	frontier := pq{{node: from, at: now, rank: r0}}
	for len(frontier) > 0 {
		it := heap.Pop(&frontier).(pqItem)
		u := it.node
		if done[u] || it.at > dist[u] || (it.at == dist[u] && it.rank > rank[u]) {
			continue
		}
		done[u] = true
		if u == p.Dst {
			break
		}
		t, tr := dist[u], rank[u]
		for _, wi := range pl.byNode[u] {
			if ban.winBanned(wi) {
				continue
			}
			w := &pl.windows[wi]
			v := w.b
			if v == u {
				v = w.a
			}
			if done[v] || w.residual < p.Size {
				continue
			}
			if v != p.Dst && ban.nodeBanned(v) {
				continue
			}
			var at float64
			var ar int
			if w.rate == 0 {
				if w.start < t-timeEps || (sameInstant(w.start, t) && wi <= tr) {
					continue // meeting already executed
				}
				at, ar = w.start, wi
			} else {
				if w.start < t-timeEps || (sameInstant(w.start, t) && wi <= tr) {
					continue // open snapshot misses the packet
				}
				at = w.start + float64(w.cap0-w.residual+p.Size)/w.rate
				if at >= w.end-timeEps {
					// Strictly before close: the close event is
					// pre-scheduled (lower sequence), so a completion
					// landing exactly at the close instant is cut off.
					continue
				}
				ar = rankStreamed
			}
			if !pl.fitsBuffer(v, at, p) {
				continue
			}
			if cur, seen := dist[v]; !seen || at < cur || (at == cur && ar < rank[v]) {
				dist[v] = at
				rank[v] = ar
				prev[v] = hop{win: wi, from: u, to: v, depart: w.start, arrive: at}
				heap.Push(&frontier, pqItem{node: v, at: at, rank: ar})
			}
		}
	}
	if !done[p.Dst] {
		return nil
	}
	var hops []hop
	for node := p.Dst; node != from; {
		h := prev[node]
		hops = append(hops, h)
		node = h.from
	}
	for l, r := 0, len(hops)-1; l < r; l, r = l+1, r-1 {
		hops[l], hops[r] = hops[r], hops[l]
	}
	return &route{hops: hops}
}

// byteStream feeds fuzz input to the graph generator; an exhausted
// stream yields zeros.
type byteStream []byte

// intn returns the next input byte reduced mod n (0 for n <= 1).
func (s *byteStream) intn(n int) int {
	if n <= 1 || len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// FuzzCGRPlan checks the slice-based planner, primed through
// trace.ContactGraph, against the reference map-based search over its
// own flattening, on random small schedules: point meetings,
// zero-duration contacts and streamed windows sharing start instants,
// windows running past the horizon, partially consumed residuals,
// finite buffers holding earlier reservations, chained ban sets, and
// custody ranks before, between and after same-instant windows.
// Several searches run back to back on one planner so stale labels or
// ban stamps from an earlier search would surface. Every edge must
// match the reference window, the live-window lookup must agree, and
// both searches must return the same hops, with bit-identical depart
// and arrive times, or both nil.
func FuzzCGRPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x06\x10\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		nodes := 2 + in.intn(7)
		nWins := 1 + in.intn(24)
		// Starts fall in [0, 55] and windows close by 70, so a horizon
		// of 60 or 65 clips the late ones.
		sched := &trace.Schedule{Duration: 60 + 5*float64(in.intn(3))}
		for i := 0; i < nWins; i++ {
			a := packet.NodeID(in.intn(nodes))
			b := packet.NodeID((int(a) + 1 + in.intn(nodes-1)) % nodes)
			start := 5 * float64(in.intn(12))
			switch in.intn(3) {
			case 0:
				sched.Meetings = append(sched.Meetings, trace.Meeting{
					A: a, B: b, Time: start, Bytes: 1024 * int64(1+in.intn(4)),
				})
			case 1:
				sched.Contacts = append(sched.Contacts, trace.Contact{
					A: a, B: b, Start: start, Bytes: 1024 * int64(1+in.intn(4)),
				})
			default:
				sched.Contacts = append(sched.Contacts, trace.Contact{
					A: a, B: b, Start: start,
					Duration: 5 * float64(1+in.intn(3)), RateBps: 256 * float64(1+in.intn(4)),
				})
			}
		}
		caps := make([]int64, nodes) // 0: unlimited
		for v := range caps {
			if in.intn(2) == 1 {
				caps[v] = 512 * int64(1+in.intn(4))
			}
		}
		capFor := func(v packet.NodeID) int64 { return caps[v] }

		pl := newPlanner(DefaultPolicy())
		pl.index(trace.NewContactGraph(sched), nodes, capFor)
		ref := newRefPlanner(sched, capFor)
		if len(pl.g.Edges) != len(ref.windows) {
			t.Fatalf("graph has %d edges, reference %d windows", len(pl.g.Edges), len(ref.windows))
		}
		for i := range ref.windows {
			e, w := pl.g.Edges[i], &ref.windows[i]
			if e.A != w.a || e.B != w.b || e.Start != w.start || e.End != w.end || e.Rate != w.rate || e.Cap != w.cap0 {
				t.Fatalf("edge %d is %+v, reference window %+v", i, e, *w)
			}
			used := 512 * int64(in.intn(4))
			pl.residual[i] = max(0, e.Cap-used)
			w.residual = max(0, w.cap0-used)
		}
		for k := in.intn(16); k > 0; k-- {
			v := packet.NodeID(in.intn(nodes))
			from := 5 * float64(in.intn(12))
			rv := reservation{
				id: packet.ID(in.intn(3)), from: from, to: from + 5*float64(1+in.intn(8)),
				bytes: 512 * int64(1+in.intn(3)),
			}
			pl.resv[v] = append(pl.resv[v], rv)
			ref.resv[v] = append(ref.resv[v], rv)
		}

		for query := 0; query < 3; query++ {
			p := &packet.Packet{
				ID: packet.ID(in.intn(3)), Dst: packet.NodeID(in.intn(nodes)),
				Size: 256 * int64(1+in.intn(4)),
			}
			from := packet.NodeID((int(p.Dst) + 1 + in.intn(nodes-1)) % nodes)
			now := 5 * float64(in.intn(6))
			var r0 int
			switch in.intn(3) {
			case 0:
				r0 = rankGenerated
			case 1:
				r0 = rankStreamed
			default:
				// A window's own rank, often at its own start: the
				// custody a point meeting or a spur deviation hands on.
				r0 = in.intn(nWins)
				if in.intn(2) == 0 {
					now = ref.windows[r0].start
				}
			}
			var ban *banSet
			var refBan *refBanSet
			for depth := in.intn(3); depth > 0; depth-- {
				ban = &banSet{parent: ban}
				refBan = &refBanSet{parent: refBan, wins: map[int]bool{}, nodes: map[packet.NodeID]bool{}}
				for k := in.intn(4); k > 0; k-- {
					wi := in.intn(nWins)
					ban.wins = append(ban.wins, wi)
					refBan.wins[wi] = true
				}
				for k := in.intn(3); k > 0; k-- {
					v := packet.NodeID(in.intn(nodes))
					ban.nodes = append(ban.nodes, v)
					refBan.nodes[v] = true
				}
			}
			if got, want := pl.g.Live(from, p.Dst, now, timeEps), ref.live(from, p.Dst, now); got != want {
				t.Fatalf("query %d: live window %d↔%d at %v is %d, reference %d", query, from, p.Dst, now, got, want)
			}
			got := pl.plan(p, from, now, r0, ban)
			want := ref.plan(p, from, now, r0, refBan)
			if (got == nil) != (want == nil) {
				t.Fatalf("query %d (pkt %+v from %d at %v, r0 %d): got route %v, reference %v",
					query, *p, from, now, r0, got, want)
			}
			if got == nil {
				continue
			}
			if len(got.hops) != len(want.hops) {
				t.Fatalf("query %d: got %d hops %+v, reference %d hops %+v",
					query, len(got.hops), got.hops, len(want.hops), want.hops)
			}
			for i, h := range got.hops {
				w := want.hops[i]
				if h.win != w.win || h.from != w.from || h.to != w.to ||
					math.Float64bits(h.depart) != math.Float64bits(w.depart) ||
					math.Float64bits(h.arrive) != math.Float64bits(w.arrive) {
					t.Fatalf("query %d hop %d: got %+v, reference %+v", query, i, h, w)
				}
			}
		}
	})
}

// TestFrontierOrder: the frontier heap pops in (arrival, rank, node)
// order whatever the push order.
func TestFrontierOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	q := minheap.Heap[pqItem]{Less: frontierLess}
	var want pq
	for i := 0; i < 500; i++ {
		it := pqItem{node: packet.NodeID(r.Intn(50)), at: float64(r.Intn(20)), rank: r.Intn(10) - 1}
		q.Push(it)
		want = append(want, it)
		if r.Intn(3) == 0 { // interleave pops with pushes
			sort.Sort(want)
			if got := q.Pop(); got != want[0] {
				t.Fatalf("pop %d: got %+v, want %+v", i, got, want[0])
			}
			want = want[1:]
		}
	}
	sort.Sort(want)
	for i, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("drain %d: got %+v, want %+v", i, got, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d items left after draining", q.Len())
	}
}

// TestPlanAllocs pins the search's allocation profile: once the
// planner's scratch has grown, a plan — under a chained ban set, over
// point meetings and streamed windows — allocates only the returned
// route and its hop slice.
func TestPlanAllocs(t *testing.T) {
	sched := &trace.Schedule{Duration: 100}
	for i := 0; i < 40; i++ {
		sched.Meetings = append(sched.Meetings,
			trace.Meeting{A: packet.NodeID(i % 20), B: packet.NodeID((i + 1) % 20), Time: float64(i), Bytes: 8 << 10},
			trace.Meeting{A: packet.NodeID(i % 20), B: packet.NodeID((i + 7) % 20), Time: float64(i) + 0.5, Bytes: 8 << 10})
	}
	// One streamed window among the meetings.
	sched.Meetings = append(sched.Meetings[:3], sched.Meetings[4:]...)
	sched.Contacts = []trace.Contact{{A: 1, B: 8, Start: 1.5, Duration: 4, RateBps: 4096}}
	pl := newPlanner(DefaultPolicy())
	pl.index(trace.NewContactGraph(sched), 0, func(packet.NodeID) int64 { return 0 })
	p := &packet.Packet{ID: 1, Src: 0, Dst: 13, Size: 1024}
	ban := &banSet{parent: &banSet{wins: []int{5}}, nodes: []packet.NodeID{7}}
	if pl.plan(p, 0, 0, rankGenerated, ban) == nil {
		t.Fatal("no route on the test graph")
	}
	allocs := testing.AllocsPerRun(100, func() {
		pl.plan(p, 0, 0, rankGenerated, ban)
	})
	if allocs > 2 {
		t.Fatalf("warmed plan allocated %.1f times, want <= 2 (route + hops)", allocs)
	}
}
