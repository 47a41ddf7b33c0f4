// Package epidemic implements classic epidemic routing [Vahdat &
// Becker, Table 1's P1 row]: replicate every packet at every transfer
// opportunity, oldest first, dropping the oldest-received copies when
// storage fills. It is the simplest Router implementation and the
// reference point for "naive flooding wastes resources" (§2).
package epidemic

import (
	"math"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Router floods packets epidemically.
type Router struct {
	node *routing.Node
	// dq is DirectQueue's scratch, reused across contacts.
	dq []*buffer.Entry
}

// New returns an epidemic router factory.
func New() routing.RouterFactory {
	return func(packet.NodeID) routing.Router { return &Router{} }
}

// Name implements routing.Router.
func (r *Router) Name() string { return "epidemic" }

// SessionConfined implements routing.SessionConfined: the router holds
// no state beyond its node's buffer and its own scratch.
func (r *Router) SessionConfined() {}

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) { r.node = n }

// Generate implements routing.Router.
func (r *Router) Generate(p *packet.Packet, now float64) {
	r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true}, r.evictionUtility)
}

// Inventory implements routing.Router. Epidemic has no delay model, so
// estimates are unknown (infinite).
func (r *Router) Inventory(now float64) []control.InventoryItem {
	entries := r.node.Store.Entries()
	out := make([]control.InventoryItem, 0, len(entries))
	for _, e := range entries {
		out = append(out, control.InventoryItem{
			ID: e.P.ID, Dst: e.P.Dst, Size: e.P.Size,
			Created: e.P.Created, Deadline: e.P.Deadline,
			Delay: math.Inf(1), Hops: e.Hops,
		})
	}
	return out
}

// DirectQueue implements routing.Router: oldest packets first.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	// The store keeps the queue in this order; copy it so the session
	// can remove entries while iterating.
	r.dq = append(r.dq[:0], r.node.Store.Queue(peer)...)
	return r.dq
}

// PlanReplication implements routing.Router: everything, oldest first.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	entries := r.node.Store.Entries()
	out := make([]*buffer.Entry, 0, len(entries))
	for _, e := range entries {
		if e.P.Dst != peer.ID {
			out = append(out, e)
		}
	}
	sortOldestFirst(out)
	return out
}

// Accept implements routing.Router: store, evicting oldest-received
// first when full.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, r.evictionUtility)
}

// evictionUtility drops the oldest-received copy first (drop-head
// FIFO, the classic epidemic buffer policy).
func (r *Router) evictionUtility(e *buffer.Entry, _ int64) float64 { return e.ReceivedAt }

// sortOldestFirst orders by creation time ascending, ID for ties.
func sortOldestFirst(es []*buffer.Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].P.Created != es[j].P.Created {
			return es[i].P.Created < es[j].P.Created
		}
		return es[i].P.ID < es[j].P.ID
	})
}
