package cgr

import (
	"math"
	"slices"

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

// A window is one edge of the run's trace.ContactGraph, and its edge
// index doubles as its execution rank: among same-instant events, a
// lower index runs first. The planner exploits this to chain
// same-instant hops exactly when the event order realizes them,
// instead of guessing.
//
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

// Planner is the shared planning state of one run over its contact
// graph: per-window residual capacity, per-node planned buffer
// reservations, and every packet's live routes and custodians. All of
// a run's CGR routers share one Planner; the simulator is
// single-threaded, so no locking.
//
// Per-node state is indexed by node ID: IDs are dense in 0..n-1
// (DESIGN.md §11; trace validation bounds them by trace.MaxNodeID),
// and index sizes every per-node slice once, at prime.
type Planner struct {
	pol      Policy
	g        *trace.ContactGraph
	residual []int64 // per window: capacity not yet reserved by routes
	nodes    map[packet.NodeID]*routing.Node
	capOf    []int64 // per-node buffer capacity; <= 0: unlimited
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

// prime builds the run's contact graph from the expanded schedule.
// Idempotent — every router of the run delegates here, the first call
// wins.
func (pl *Planner) prime(s *trace.Schedule, net *routing.Network) {
	if pl.primed {
		return
	}
	pl.primed = true
	n := 0
	for id := range net.Nodes {
		n = max(n, int(id)+1)
	}
	pl.index(trace.NewContactGraph(s), n, net.Cfg.CapacityFor)
}

// index adopts the contact graph and sizes the per-node state for node
// IDs 0..n-1, where n covers minNodes and every node of the graph.
// capFor resolves each node's buffer capacity once.
func (pl *Planner) index(g *trace.ContactGraph, minNodes int, capFor func(packet.NodeID) int64) {
	pl.g = g
	pl.residual = make([]int64, len(g.Edges))
	for i := range g.Edges {
		pl.residual[i] = g.Edges[i].Cap
	}
	n := max(minNodes, g.NumNodes())
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
	pl.winMark = make([]uint32, len(g.Edges))
}

// register records a node at attach time so custody transfers can drop
// the sender's copy.
func (pl *Planner) register(n *routing.Node) { pl.nodes[n.ID] = n }

// drop removes the packet from the node's store, if the node is known.
func (pl *Planner) drop(node packet.NodeID, id packet.ID) {
	if n := pl.nodes[node]; n != nil {
		n.Store.Remove(id)
	}
}

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
		for _, wi := range pl.g.IncidentFrom(u, t-timeEps) {
			if winMark[wi] == gen {
				continue
			}
			w := &pl.g.Edges[wi]
			v := w.B
			if v == u {
				v = w.A
			}
			if done[v] || pl.residual[wi] < p.Size {
				continue
			}
			if v != p.Dst && nodeMark[v] == gen {
				continue
			}
			// Every scanned window starts at or after t-timeEps; a
			// same-instant one with a rank not above the custody rank
			// has already run (a meeting) or snapshotted its queues
			// without the packet (a window open).
			if sameInstant(w.Start, t) && wi <= tr {
				continue
			}
			at, ar := w.Start, wi
			if w.Rate != 0 {
				at = w.Start + float64(w.Cap-pl.residual[wi]+p.Size)/w.Rate
				if at >= w.End-timeEps {
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
				prev[v] = hop{win: wi, from: u, to: v, depart: w.Start, arrive: at}
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
		pl.residual[h.win] -= p.Size
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
		pl.residual[r.hops[i].win] += r.size
	}
	// Reservations live only at the route's own hop receivers — scan
	// those nodes, not the whole network (release runs on every
	// re-plan and delivery). DeleteFunc zeroes the vacated tail,
	// dropping the released route's pointers.
	for _, h := range r.hops {
		pl.resv[h.to] = slices.DeleteFunc(pl.resv[h.to], func(rv reservation) bool { return rv.rt == r })
	}
	out := slices.DeleteFunc(pl.routes[id], func(o *route) bool { return o == r })
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
	return h.from == node && pl.g.Edges[h.win].End >= now-timeEps
}

// executable returns the currently-executable routes of the packet's
// replica held at node, re-planning stale ones (and giving a routeless
// replica one route, copy budget permitting). r0 is the custody rank of
// the calling event (rankGenerated at creation; the live window - 1 during a
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
		pl.drop(from, id)
		pl.drop(to, id)
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
		pl.drop(from, id)
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
		pl.drop(r.holder, id)
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
	for _, wi := range pl.g.Incident(p.Dst) {
		if pl.g.Edges[wi].End >= now-timeEps {
			capacity += pl.residual[wi]
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
	pl.forget(dst, func(e admEntry) bool { return e.deadline > 0 && now >= e.deadline })
}

// settleAdmitted clears a delivered packet's ledger claim.
func (pl *Planner) settleAdmitted(id packet.ID) {
	if dst, ok := pl.admDst[id]; ok {
		pl.forget(dst, func(e admEntry) bool { return e.id == id })
	}
}

// forget drops the ledger claims toward dst that gone selects and
// refunds their bytes.
func (pl *Planner) forget(dst packet.NodeID, gone func(admEntry) bool) {
	list := pl.admitted[dst]
	out := list[:0]
	for _, e := range list {
		if gone(e) {
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
