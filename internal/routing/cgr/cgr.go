// Package cgr implements Contact Graph Routing over deterministic
// contact plans: the scheduled-connectivity counterpart of the paper's
// statistical DTN setting (Alhajj & Corlay, arXiv:2410.15546; Shi et
// al., arXiv:2211.06598). Where RAPID and the reactive baselines decide
// contact-by-contact, CGR knows the full expanded schedule up front —
// satellite constellations and data-mule routes make every future
// window computable — and routes each packet along its earliest-arrival
// time-respecting path, reserving per-window capacity and relay buffer
// headroom as it plans.
//
// The planner is parameterized by a Policy, turning the package into a
// family of allocation strategies benchmarked head-to-head: classic
// single-copy custody transfer (DefaultPolicy), Yen-style k-alternate
// paths with widest-within-slack selection (KPaths > 1), bounded
// multi-copy spreading over window- and relay-disjoint routes
// (Copies > 1), and GMA-style per-destination source admission
// (AdmitFraction > 0; arXiv:2102.10314). Whatever the policy, when
// reality diverges from the plan — a window closes before the transfer
// completes, radio sharing cuts the effective rate, a relay refuses the
// copy — custody stays put, the stale route is released (refunding its
// unused capacity and buffer reservations), and the replica is
// re-planned from its current custodian at the next opportunity.
// DESIGN.md §9 documents the graph construction and re-planning rules;
// §15 the policy extensions.
package cgr

import (
	"cmp"
	"slices"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// Router is one node's view of the shared contact-graph planner.
type Router struct {
	node *routing.Node
	pl   *Planner

	// planScratch, dqScratch and matchScratch are the reused
	// per-contact slices.
	planScratch  []*buffer.Entry
	dqScratch    []*buffer.Entry
	matchScratch []match
}

// match is one buffered packet routed over the live contact, with its
// earliest planned delivery.
type match struct {
	e      *buffer.Entry
	arrive float64
}

// New returns a classic (single-copy, single-path) CGR router factory.
// All routers built by one factory share one planner — a factory must
// not be reused across runs.
func New() routing.RouterFactory { return NewPolicy(DefaultPolicy()) }

// NewPolicy returns a CGR router factory running the given allocation
// policy. The same single-use rule as New applies.
func NewPolicy(pol Policy) routing.RouterFactory {
	pl := newPlanner(pol)
	return func(packet.NodeID) routing.Router {
		return &Router{pl: pl}
	}
}

// Name implements routing.Router.
func (r *Router) Name() string { return "cgr" }

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) {
	r.node = n
	r.pl.register(n)
}

// PrimeSchedule implements routing.SchedulePrimer: the planner ingests
// the expanded schedule before the first event (idempotent — one node
// wins, the rest no-op).
func (r *Router) PrimeSchedule(s *trace.Schedule, net *routing.Network) {
	r.pl.prime(s, net)
}

// Generate implements routing.Router: admit the packet against the
// destination's residual-capacity quota (a no-op outside the admission
// arm — rejected packets are never stored), store it (the source is its
// first custodian), and plan its initial routes — one, or up to Copies
// disjoint ones under the multi-copy arm.
func (r *Router) Generate(p *packet.Packet, now float64) {
	if !r.pl.admitAllowed(p, now) {
		return
	}
	if !r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true}, nil) {
		return
	}
	r.pl.admit(p)
	r.pl.spread(p, r.node.ID, now)
}

// Inventory implements routing.Router. CGR runs no metadata channel:
// the contact plan is shared a priori, and bounded custody makes
// replica inventories moot.
func (r *Router) Inventory(now float64) []control.InventoryItem { return nil }

// DirectQueue implements routing.Router: everything destined to the
// peer, oldest first. Meeting the destination is always at least as
// good as any planned route, so direct delivery is unconditional.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	q := r.node.Store.Queue(peer)
	if len(q) == 0 {
		return nil
	}
	r.dqScratch = append(r.dqScratch[:0], q...)
	return r.dqScratch
}

// PlanReplication implements routing.Router: the buffered packets whose
// planned next hop traverses the live contact to this peer, earliest
// planned delivery first. Packets with stale routes (missed or cut-off
// windows) are re-planned here; packets routed through other contacts
// are withheld — bounded custody never hedges beyond its copy budget.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	matches := r.matchScratch[:0]
	// The custody rank of this event: the live window itself, so a
	// re-plan may depart through the very contact being executed or any
	// same-instant window still pending. Windowed contacts consult
	// routers only at open, so the live window starts now; a contact
	// from outside the primed schedule has none.
	r0 := rankStreamed
	if cur := r.pl.g.Live(r.node.ID, peer.ID, now, timeEps); cur >= 0 {
		r0 = cur - 1
	}
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst == peer.ID {
			continue // Step 2's direct queue owns these
		}
		matched := false
		var bestAt float64
		for _, rt := range r.pl.executable(e.P, r.node.ID, now, r0) {
			h := rt.hops[rt.next]
			w := &r.pl.g.Edges[h.win]
			if h.to != peer.ID || now < w.Start-timeEps || now > w.End+timeEps {
				continue // planned through a different contact
			}
			if !matched || rt.arriveAt() < bestAt {
				matched, bestAt = true, rt.arriveAt()
			}
		}
		if !matched {
			continue
		}
		matches = append(matches, match{e: e, arrive: bestAt})
	}
	slices.SortFunc(matches, func(a, b match) int {
		if a.arrive != b.arrive {
			return cmp.Compare(a.arrive, b.arrive)
		}
		return cmp.Compare(a.e.P.ID, b.e.P.ID)
	})
	out := r.planScratch[:0]
	for _, m := range matches {
		out = append(out, m.e)
	}
	r.matchScratch, r.planScratch = matches, out
	return out
}

// Accept implements routing.Router: take custody. The insert is
// headroom-checked by the store; on success the planner advances the
// matching route and settles the sender's copy. On refusal custody
// stays with the sender, whose now-stale route re-plans at its next
// contact.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	if !r.node.Store.Insert(e, nil) {
		return false
	}
	r.pl.transferred(e.P.ID, from, r.node.ID)
	return true
}

// OnDelivered implements routing.DeliveryObserver: release the
// delivered packet's remaining reservations and sweep surviving
// replicas.
func (r *Router) OnDelivered(id packet.ID, now float64) {
	r.pl.delivered(id)
}
