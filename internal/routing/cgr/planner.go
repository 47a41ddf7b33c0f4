package cgr

import (
	"math"
	"sort"

	"rapid/internal/minheap"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// timeEps absorbs float noise when matching a planned hop against the
// live clock: schedule times flow unmodified from the expanded plan
// into both the planner and the event queue, so equality normally holds
// exactly, but an epsilon keeps a representational wobble from silently
// desynchronizing the plan.
const timeEps = 1e-9

// window is one concrete transfer opportunity of the contact graph —
// an expanded occurrence, not a periodic rule. Point meetings carry
// rate == 0 and end == start.
//
// A window's index in Planner.windows doubles as its execution rank:
// the runtime schedules the workload first, then every meeting in
// schedule order, then every contact span — so among same-instant
// events, a lower index runs first. The planner exploits this to chain
// same-instant hops exactly when the event order realizes them, instead
// of guessing.
type window struct {
	a, b       packet.NodeID
	start, end float64
	rate       float64 // bytes/s; 0 for a point meeting
	cap0       int64   // nominal capacity (serialization baseline)
	residual   int64   // capacity not yet reserved by planned routes
}

// Custody ranks bracketing the window indices: rankGenerated orders
// packet-creation events before every same-instant window (the runtime
// schedules the workload first); rankStreamed orders a windowed
// transfer's completion after every same-instant pre-scheduled event
// (completions are booked during the run, so their sequence numbers are
// higher than the whole initial batch).
const (
	rankGenerated = -1
	rankStreamed  = math.MaxInt32
)

// hop is one planned traversal of a window.
type hop struct {
	win      int
	from, to packet.NodeID
	// depart is when transmission begins, arrive when the last byte
	// lands (equal for point meetings).
	depart, arrive float64
}

// route is one replica's planned path. next indexes the first
// untraversed hop; hops before it have already moved custody. holder is
// the node currently holding this replica (hops[next-1].to once any hop
// has executed, the planning node before that). size is the packet size
// the route's reservations were taken at.
type route struct {
	hops   []hop
	next   int
	holder packet.NodeID
	size   int64
}

// arriveAt returns the planned delivery instant.
func (r *route) arriveAt() float64 { return r.hops[len(r.hops)-1].arrive }

// reservation records planned buffer occupancy of one packet at one
// node over its custody interval. rt ties it to the route that took it,
// so multi-copy release refunds per route, not per packet.
type reservation struct {
	id       packet.ID
	rt       *route
	from, to float64
	bytes    int64
}

// tryKey scopes the re-plan throttle to one replica's custodian: in
// multi-copy operation two custodians of the same packet may both plan
// at one instant, and one's failure must not silence the other.
type tryKey struct {
	id   packet.ID
	node packet.NodeID
}

// banSet is the exclusion set threaded through plan(): window indices
// and relay nodes a candidate path must avoid (duplicates are
// harmless). Sets chain through parent so composing Yen spur bans on
// top of the copy-disjointness base needs no copying. The destination
// is never banned — checks skip it explicitly. A nil *banSet bans
// nothing.
type banSet struct {
	parent *banSet
	wins   []int
	nodes  []packet.NodeID
}

// Planner is the shared contact-graph state of one run: the expanded
// windows, per-window residual capacity, per-node planned buffer
// reservations, and every packet's live routes and custodians. All of
// a run's CGR routers share one Planner; the simulator is
// single-threaded, so no locking.
//
// Per-node state is indexed by node ID: IDs are dense in 0..n-1
// (DESIGN.md §11; trace validation bounds them by trace.MaxNodeID),
// and index sizes every per-node slice once, at prime.
type Planner struct {
	pol     Policy
	windows []window
	byNode  [][]int // window indices touching the node, start-sorted
	nodes   map[packet.NodeID]*routing.Node
	capOf   []int64 // per-node buffer capacity; <= 0: unlimited
	// routes holds each packet's live replica routes, creation-ordered;
	// at most pol.Copies entries per packet.
	routes map[packet.ID][]*route
	resv   [][]reservation // per-node planned custody
	// lastTry throttles re-planning of currently unroutable packets to
	// once per simulation instant per custodian.
	lastTry map[tryKey]float64
	// finished marks delivered packets so a replica still in flight when
	// delivery happened elsewhere is dropped instead of re-planned.
	finished map[packet.ID]bool
	primed   bool

	// Admission ledger (pol.AdmitFraction > 0 only): bytes admitted and
	// not yet delivered or expired, per destination.
	admitted map[packet.NodeID][]admEntry
	admBytes map[packet.NodeID]int64
	admDst   map[packet.ID]packet.NodeID

	// Dijkstra scratch, reused across plans: per-node labels (dist is
	// +Inf for an unseen node), the frontier, and ban stamps — a window
	// or node is banned for the current search when its mark equals
	// banGen.
	dist     []float64
	rank     []int
	prev     []hop
	done     []bool
	frontier minheap.Heap[pqItem]
	winMark  []uint32
	nodeMark []uint32
	banGen   uint32

	execScratch []*route
}

// admEntry is one admitted packet's outstanding claim toward its
// destination. deadline (absolute; 0 = none) lets the ledger expire
// claims of packets that died undelivered.
type admEntry struct {
	id       packet.ID
	bytes    int64
	deadline float64
}

func newPlanner(pol Policy) *Planner {
	pl := &Planner{
		pol:      pol.normalized(),
		nodes:    make(map[packet.NodeID]*routing.Node),
		routes:   make(map[packet.ID][]*route),
		lastTry:  make(map[tryKey]float64),
		finished: make(map[packet.ID]bool),
		frontier: minheap.Heap[pqItem]{Less: frontierLess},
	}
	if pl.pol.AdmitFraction > 0 {
		pl.admitted = make(map[packet.NodeID][]admEntry)
		pl.admBytes = make(map[packet.NodeID]int64)
		pl.admDst = make(map[packet.ID]packet.NodeID)
	}
	return pl
}

// prime builds the contact graph from the expanded schedule: one window
// per meeting occurrence and per duration-aware contact. Idempotent —
// every router of the run delegates here, the first call wins.
func (pl *Planner) prime(s *trace.Schedule, net *routing.Network) {
	if pl.primed {
		return
	}
	pl.primed = true
	for _, m := range s.Meetings {
		pl.windows = append(pl.windows, window{
			a: m.A, b: m.B, start: m.Time, end: m.Time,
			cap0: m.Bytes, residual: m.Bytes,
		})
	}
	for _, c := range s.Contacts {
		w := window{a: c.A, b: c.B, start: c.Start, end: c.Start, cap0: c.Bytes, residual: c.Bytes}
		if c.Windowed() {
			// Capacity must be the runtime's own budget figure
			// (Contact.Capacity — recomputing RateBps·(end−start) can
			// round one byte above it and plan a transfer the session
			// budget then refuses forever), shrunk when the horizon
			// clips the window (Contact.EndWithin, the same rule the
			// runtime closes by): only the in-horizon share can move.
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
		pl.windows = append(pl.windows, w)
	}
	n := 0
	for id := range net.Nodes {
		n = max(n, int(id)+1)
	}
	pl.index(n, net.Cfg.CapacityFor)
}

// index sizes the per-node state over pl.windows — for node IDs
// 0..n-1, where n covers minNodes and every window endpoint — and
// builds the per-node window lists. capFor resolves each node's buffer
// capacity once.
func (pl *Planner) index(minNodes int, capFor func(packet.NodeID) int64) {
	n := minNodes
	for _, w := range pl.windows {
		n = max(n, int(w.a)+1, int(w.b)+1)
	}
	pl.byNode = make([][]int, n)
	for i, w := range pl.windows {
		pl.byNode[w.a] = append(pl.byNode[w.a], i)
		pl.byNode[w.b] = append(pl.byNode[w.b], i)
	}
	// Start-sorted per-node lists let the live-contact lookup and the
	// search binary-search by time; ties keep execution-rank order.
	for _, list := range pl.byNode {
		sort.Slice(list, func(i, j int) bool {
			wi, wj := &pl.windows[list[i]], &pl.windows[list[j]]
			if wi.start != wj.start {
				return wi.start < wj.start
			}
			return list[i] < list[j]
		})
	}
	pl.capOf = make([]int64, n)
	for v := range pl.capOf {
		pl.capOf[v] = capFor(packet.NodeID(v))
	}
	pl.resv = make([][]reservation, n)
	pl.dist = make([]float64, n)
	pl.rank = make([]int, n)
	pl.prev = make([]hop, n)
	pl.done = make([]bool, n)
	pl.nodeMark = make([]uint32, n)
	pl.winMark = make([]uint32, len(pl.windows))
}

// startingFrom returns the position of the first window in the
// start-sorted list that starts at or after t.
func (pl *Planner) startingFrom(list []int, t float64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pl.windows[list[m]].start < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// liveWindow locates the window being executed between two nodes at the
// current instant — the session or window-open event calling into the
// router — by binary search over the node's start-sorted windows.
// Returns -1 when none matches (the contact came from outside the
// primed schedule).
func (pl *Planner) liveWindow(a, b packet.NodeID, now float64) int {
	list := pl.byNode[a]
	// Windowed contacts consult routers only at open, so start == now
	// for every live window; search the equal-start run.
	for i := pl.startingFrom(list, now-timeEps); i < len(list); i++ {
		w := &pl.windows[list[i]]
		if w.start > now+timeEps {
			break
		}
		if (w.a == a && w.b == b) || (w.a == b && w.b == a) {
			return list[i]
		}
	}
	return -1
}

// register records a node at attach time so custody transfers can drop
// the sender's copy.
func (pl *Planner) register(n *routing.Node) { pl.nodes[n.ID] = n }

// occupied sums planned buffer reservations at node covering instant t,
// excluding packet id's own reservations.
func (pl *Planner) occupied(node packet.NodeID, t float64, id packet.ID) int64 {
	var sum int64
	for _, r := range pl.resv[node] {
		if r.id != id && r.from <= t && t < r.to {
			sum += r.bytes
		}
	}
	return sum
}

// fitsBuffer checks next-hop buffer headroom per the run's
// BufferBytesFor assignment: the node must have room for the packet on
// top of the custody already planned to overlap its arrival. The check
// is an instant sample at the arrival time — an approximation (planned
// occupancy can peak between samples), backstopped at runtime by the
// store's hard capacity check and the resulting re-plan.
func (pl *Planner) fitsBuffer(node packet.NodeID, t float64, p *packet.Packet) bool {
	if node == p.Dst {
		return true // delivered on arrival, never buffered
	}
	capacity := pl.capOf[node]
	if capacity <= 0 {
		return true
	}
	return pl.occupied(node, t, p.ID)+p.Size <= capacity
}

// pqItem is one frontier entry of the Dijkstra search.
type pqItem struct {
	node packet.NodeID
	at   float64
	rank int
}

// frontierLess orders the Dijkstra frontier by (arrival, rank, node)
// — rank breaks time ties because a lower-rank label can use strictly
// more same-instant windows; the node tiebreak keeps settling
// deterministic. The order is total over the entries a search pushes
// (a node is re-pushed only with a strictly better label), so the pop
// sequence does not depend on the heap's layout.
func frontierLess(a, b pqItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.node < b.node
}

// sameInstant compares schedule times for equality within float noise.
func sameInstant(a, b float64) bool { return math.Abs(a-b) <= timeEps }

// stampBans marks every window and relay node of the chained ban set
// with a fresh generation and returns it: during the search that
// follows, a ban test is one slice read.
func (pl *Planner) stampBans(ban *banSet) uint32 {
	pl.banGen++
	if pl.banGen == 0 { // wrapped: stale marks could alias
		clear(pl.winMark)
		clear(pl.nodeMark)
		pl.banGen = 1
	}
	for s := ban; s != nil; s = s.parent {
		for _, wi := range s.wins {
			pl.winMark[wi] = pl.banGen
		}
		for _, v := range s.nodes {
			pl.nodeMark[v] = pl.banGen
		}
	}
	return pl.banGen
}

// plan runs earliest-arrival Dijkstra over the time-expanded contact
// graph for packet p held at `from` since `now`, with custody rank r0
// ordering the origin against same-instant events. ban excludes windows
// and relay nodes (never the destination) — the Yen spur search and the
// multi-copy disjointness rule both thread exclusions through it; nil
// bans nothing. Edge feasibility:
//
//   - residual Rate×Duration capacity ≥ the packet size;
//   - a point meeting must not have executed yet: strictly later than
//     the custody instant, or same-instant with a higher execution
//     rank (the runtime's event order is deterministic, so this is
//     exact, not heuristic);
//   - a windowed contact snapshots its queues at open, so custody must
//     exist before the open event; arrival serializes behind the bytes
//     already planned onto the window and must land before close;
//   - the receiving node must have buffer headroom at the arrival
//     instant (per the run's BufferBytesFor assignment).
//
// Labels are (arrival, rank) lexicographic — for equal arrivals a
// lower rank dominates. Returns nil when the destination is
// unreachable under those constraints.
//
// The search touches no map: labels, ban stamps and the frontier are
// node-indexed slices reused across calls, each node's windows are
// scanned from the first one starting at the custody instant (earlier
// ones can never be taken), and the buffer-headroom scan runs only for
// edges that would improve a label. A warmed call allocates only the
// returned route.
func (pl *Planner) plan(p *packet.Packet, from packet.NodeID, now float64, r0 int, ban *banSet) *route {
	dist, rank, prev, done := pl.dist, pl.rank, pl.prev, pl.done
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	clear(done)
	gen := pl.stampBans(ban)
	winMark, nodeMark := pl.winMark, pl.nodeMark
	dist[from] = now
	rank[from] = r0
	q := &pl.frontier
	q.Items = q.Items[:0]
	q.Push(pqItem{node: from, at: now, rank: r0})
	for q.Len() > 0 {
		u := q.Pop().node
		if done[u] {
			// A superseded entry: the node's better label popped first.
			continue
		}
		done[u] = true
		if u == p.Dst {
			break
		}
		t, tr := dist[u], rank[u]
		list := pl.byNode[u]
		for _, wi := range list[pl.startingFrom(list, t-timeEps):] {
			if winMark[wi] == gen {
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
			if v != p.Dst && nodeMark[v] == gen {
				continue
			}
			// Every scanned window starts at or after t-timeEps; a
			// same-instant one with a rank not above the custody rank
			// has already run (a meeting) or snapshotted its queues
			// without the packet (a window open).
			if sameInstant(w.start, t) && wi <= tr {
				continue
			}
			at, ar := w.start, wi
			if w.rate != 0 {
				at = w.start + float64(w.cap0-w.residual+p.Size)/w.rate
				if at >= w.end-timeEps {
					// Strictly before close: the close event is
					// pre-scheduled (lower sequence), so a completion
					// landing exactly at the close instant is cut off.
					continue
				}
				ar = rankStreamed
			}
			if (at < dist[v] || (at == dist[v] && ar < rank[v])) && pl.fitsBuffer(v, at, p) {
				dist[v] = at
				rank[v] = ar
				prev[v] = hop{win: wi, from: u, to: v, depart: w.start, arrive: at}
				q.Push(pqItem{node: v, at: at, rank: ar})
			}
		}
	}
	if !done[p.Dst] {
		return nil
	}
	n := 0
	for node := p.Dst; node != from; node = prev[node].from {
		n++
	}
	hops := make([]hop, n)
	for node := p.Dst; node != from; node = prev[node].from {
		n--
		hops[n] = prev[node]
	}
	return &route{hops: hops}
}

// banFor builds the copy-disjointness exclusion set for a new route of
// the packet: every window and every node its other live routes touch.
// Replicas must be capacity-disjoint (no shared window — they would
// compete for the same reserved bytes) and relay-disjoint (the store is
// keyed by packet ID, so a node can never hold two copies); only source
// and destination may be shared. Returns nil — ban nothing — when the
// packet has no live routes, which keeps the single-copy arm on the
// exact classic code path.
func (pl *Planner) banFor(id packet.ID) *banSet {
	rs := pl.routes[id]
	if len(rs) == 0 {
		return nil
	}
	b := &banSet{}
	for _, r := range rs {
		b.nodes = append(b.nodes, r.holder)
		for _, h := range r.hops {
			b.wins = append(b.wins, h.win)
			b.nodes = append(b.nodes, h.from, h.to)
		}
	}
	return b
}

// commit reserves a route's resources for packet p held at holder:
// residual capacity on every window it traverses, and buffer headroom
// at every intermediate node over its planned custody interval.
func (pl *Planner) commit(p *packet.Packet, r *route, holder packet.NodeID) {
	r.size = p.Size
	r.holder = holder
	for i, h := range r.hops {
		pl.windows[h.win].residual -= p.Size
		if i+1 < len(r.hops) {
			pl.resv[h.to] = append(pl.resv[h.to], reservation{
				id: p.ID, rt: r, from: h.arrive, to: r.hops[i+1].arrive, bytes: p.Size,
			})
		}
	}
	pl.routes[p.ID] = append(pl.routes[p.ID], r)
}

// releaseRoute refunds the untraversed remainder of one route —
// residual capacity of hops not yet executed and every buffer
// reservation it took — and forgets it.
func (pl *Planner) releaseRoute(id packet.ID, r *route) {
	for i := r.next; i < len(r.hops); i++ {
		pl.windows[r.hops[i].win].residual += r.size
	}
	// Reservations live only at the route's own hop receivers — scan
	// those nodes, not the whole network (release runs on every
	// re-plan and delivery).
	for _, h := range r.hops {
		list := pl.resv[h.to]
		out := list[:0]
		for _, rv := range list {
			if rv.rt != r {
				out = append(out, rv)
			}
		}
		clear(list[len(out):]) // drop the released routes' pointers
		pl.resv[h.to] = out
	}
	list := pl.routes[id]
	out := list[:0]
	for _, o := range list {
		if o != r {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		delete(pl.routes, id)
	} else {
		pl.routes[id] = out
	}
}

// release drops every live route of the packet. Safe with none.
func (pl *Planner) release(id packet.ID) {
	for len(pl.routes[id]) > 0 {
		pl.releaseRoute(id, pl.routes[id][0])
	}
}

// fresh reports whether the route's planned next hop is still
// executable from node at the current clock: the replica is where the
// plan says it is and the hop's window has not closed. A window cut
// short by radio sharing or closed before the transfer completed shows
// up here as a stale route.
func (pl *Planner) fresh(r *route, node packet.NodeID, now float64) bool {
	if r == nil || r.next >= len(r.hops) {
		return false
	}
	h := r.hops[r.next]
	return h.from == node && pl.windows[h.win].end >= now-timeEps
}

// executable returns the currently-executable routes of the packet's
// replica held at node, re-planning stale ones (and giving a routeless
// replica one route, copy budget permitting). r0 is the custody rank of
// the calling event (rankGenerated at creation; liveWindow-1 during a
// contact). Returns a scratch slice valid until the next call; empty
// when no feasible route exists at this instant — retries are throttled
// to once per simulation time per custodian. With Copies == 1 and
// KPaths == 1 this is exactly classic routeFor.
func (pl *Planner) executable(p *packet.Packet, node packet.NodeID, now float64, r0 int) []*route {
	if pl.finished[p.ID] {
		return nil
	}
	out := pl.execScratch[:0]
	stale := 0
	held := 0
	for _, r := range pl.routes[p.ID] {
		if r.holder != node {
			continue
		}
		held++
		if pl.fresh(r, node, now) {
			out = append(out, r)
		} else {
			stale++
		}
	}
	if held > 0 && stale == 0 {
		pl.execScratch = out
		return out
	}
	k := tryKey{id: p.ID, node: node}
	if last, tried := pl.lastTry[k]; tried && last == now && held == 0 {
		return nil
	}
	pl.lastTry[k] = now
	for {
		var victim *route
		for _, r := range pl.routes[p.ID] {
			if r.holder == node && !pl.fresh(r, node, now) {
				victim = r
				break
			}
		}
		if victim == nil {
			break
		}
		pl.releaseRoute(p.ID, victim)
	}
	// Replace what was released; a replica with no route gets one
	// attempt. The copy budget bounds the total either way.
	plans := stale
	if held == 0 {
		plans = 1
	}
	for i := 0; i < plans && len(pl.routes[p.ID]) < pl.pol.Copies; i++ {
		r := pl.planBest(p, node, now, r0)
		if r == nil {
			break
		}
		pl.commit(p, r, node)
		out = append(out, r)
	}
	pl.execScratch = out
	return out
}

// spread plans the packet's initial routes at its source: one for the
// single-copy policies, up to Copies mutually window- and relay-
// disjoint routes for the bounded multi-copy arm (fewer when the graph
// has no further disjoint path — the budget is a cap, not a quota).
func (pl *Planner) spread(p *packet.Packet, node packet.NodeID, now float64) {
	pl.lastTry[tryKey{id: p.ID, node: node}] = now
	for len(pl.routes[p.ID]) < pl.pol.Copies {
		r := pl.planBest(p, node, now, rankGenerated)
		if r == nil {
			return
		}
		pl.commit(p, r, node)
	}
}

// transferred records a completed custody transfer: the matching route
// advances past the executed hop and its holder moves to the receiver.
// The sender drops its copy unless another route still starts there
// (the source of a multi-copy spread keeps custody while replicas
// remain). An off-plan transfer discards every route; the next contact
// re-plans from the new custodian.
func (pl *Planner) transferred(id packet.ID, from, to packet.NodeID) {
	if pl.finished[id] {
		// A replica of an already-delivered packet was in flight when
		// delivery happened elsewhere: drop both ends.
		if n := pl.nodes[from]; n != nil {
			n.Store.Remove(id)
		}
		if n := pl.nodes[to]; n != nil {
			n.Store.Remove(id)
		}
		return
	}
	matched := false
	for _, r := range pl.routes[id] {
		if r.holder == from && r.next < len(r.hops) && r.hops[r.next].from == from && r.hops[r.next].to == to {
			r.next++
			r.holder = to
			matched = true
			break
		}
	}
	if !matched {
		pl.release(id)
	}
	still := false
	for _, r := range pl.routes[id] {
		if r.holder == from {
			still = true
			break
		}
	}
	if !still {
		if n := pl.nodes[from]; n != nil {
			n.Store.Remove(id)
		}
	}
}

// delivered releases everything the packet still holds and sweeps the
// surviving replicas out of their custodians' stores — the packet is
// done, so stray copies must stop consuming buffer and planning effort.
// Replicas in flight at this instant are caught by the finished mark
// when their transfer completes. Idempotent (delivery observers fire on
// both session ends).
func (pl *Planner) delivered(id packet.ID) {
	for _, r := range pl.routes[id] {
		if n := pl.nodes[r.holder]; n != nil {
			n.Store.Remove(id)
		}
	}
	pl.release(id)
	pl.finished[id] = true
	pl.settleAdmitted(id)
}

// admitAllowed implements the GMA-style source admission rule: the
// bytes already admitted toward p.Dst (and not yet delivered or
// expired) plus this packet must fit within AdmitFraction of the
// residual capacity of the destination's remaining access windows. The
// view is conservative — packets with committed routes count against
// both the ledger and the residual they reserved — but it is exactly
// the planner's own capacity signal, needs no extra message exchange,
// and keeps throttling even when re-plans fail and no reservation
// exists. Always true when admission is off.
func (pl *Planner) admitAllowed(p *packet.Packet, now float64) bool {
	if pl.pol.AdmitFraction <= 0 {
		return true
	}
	pl.pruneAdmitted(p.Dst, now)
	var capacity int64
	for _, wi := range pl.byNode[p.Dst] {
		if w := &pl.windows[wi]; w.end >= now-timeEps {
			capacity += w.residual
		}
	}
	budget := int64(pl.pol.AdmitFraction * float64(capacity))
	return pl.admBytes[p.Dst]+p.Size <= budget
}

// admit records an accepted packet in the admission ledger.
func (pl *Planner) admit(p *packet.Packet) {
	if pl.pol.AdmitFraction <= 0 {
		return
	}
	pl.admitted[p.Dst] = append(pl.admitted[p.Dst], admEntry{id: p.ID, bytes: p.Size, deadline: p.Deadline})
	pl.admBytes[p.Dst] += p.Size
	pl.admDst[p.ID] = p.Dst
}

// pruneAdmitted expires ledger claims whose packets' deadlines have
// passed — they will never be delivered, and holding their claim would
// choke the destination's quota forever.
func (pl *Planner) pruneAdmitted(dst packet.NodeID, now float64) {
	list, ok := pl.admitted[dst]
	if !ok {
		return
	}
	out := list[:0]
	for _, e := range list {
		if e.deadline > 0 && now >= e.deadline {
			pl.admBytes[dst] -= e.bytes
			delete(pl.admDst, e.id)
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		delete(pl.admitted, dst)
	} else {
		pl.admitted[dst] = out
	}
}

// settleAdmitted clears a delivered packet's ledger claim.
func (pl *Planner) settleAdmitted(id packet.ID) {
	if pl.admDst == nil {
		return
	}
	dst, ok := pl.admDst[id]
	if !ok {
		return
	}
	delete(pl.admDst, id)
	list := pl.admitted[dst]
	out := list[:0]
	for _, e := range list {
		if e.id == id {
			pl.admBytes[dst] -= e.bytes
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		delete(pl.admitted, dst)
	} else {
		pl.admitted[dst] = out
	}
}
