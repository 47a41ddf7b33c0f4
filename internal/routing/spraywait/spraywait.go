// Package spraywait implements binary Spray and Wait [Spyropoulos et
// al., WDTN 2005]: each packet starts with L replication tokens; at a
// meeting a node holding n > 1 tokens hands the peer ⌊n/2⌋ of them
// with a copy; a node holding a single token only delivers directly
// (the wait phase). The paper uses L = 12, "based on consultation with
// authors and using LEMMA 4.3 in [30] with a = 4" (§6.1).
package spraywait

import (
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// DefaultL is the paper's token budget.
const DefaultL = 12

// Router implements binary Spray and Wait for one node.
type Router struct {
	node *routing.Node
	l    int
	// dq is DirectQueue's scratch, reused across contacts.
	dq []*buffer.Entry
}

// New returns a Spray-and-Wait factory with the given token budget
// (l <= 0 selects DefaultL).
func New(l int) routing.RouterFactory {
	if l <= 0 {
		l = DefaultL
	}
	return func(packet.NodeID) routing.Router { return &Router{l: l} }
}

// Name implements routing.Router.
func (r *Router) Name() string { return "spray-and-wait" }

// SessionConfined implements routing.SessionConfined: token state lives
// in the entries of the two session endpoints, and the scratch is
// per-node.
func (r *Router) SessionConfined() {}

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) { r.node = n }

// Generate implements routing.Router: the source copy carries all L
// tokens.
func (r *Router) Generate(p *packet.Packet, now float64) {
	r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true, Tokens: r.l}, evictUtility)
}

// Inventory implements routing.Router (nothing to announce — Spray and
// Wait uses no control channel).
func (r *Router) Inventory(now float64) []control.InventoryItem { return nil }

// DirectQueue implements routing.Router: oldest first.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	// The store keeps the queue in this order; copy it so the session
	// can remove entries while iterating.
	r.dq = append(r.dq[:0], r.node.Store.Queue(peer)...)
	return r.dq
}

// PlanReplication implements routing.Router: spray-phase packets only
// (tokens > 1), oldest first.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	var out []*buffer.Entry
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst != peer.ID && e.Tokens > 1 {
			out = append(out, e)
		}
	}
	sortOldest(out)
	return out
}

// OnReplicated implements routing.ReplicationObserver: binary split of
// the token allowance.
func (r *Router) OnReplicated(src, copy *buffer.Entry, to packet.NodeID) {
	give := src.Tokens / 2
	src.Tokens -= give
	copy.Tokens = give
}

// Accept implements routing.Router.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, evictUtility)
}

// evictUtility drops packets pseudo-randomly ("Spray and Wait and
// Random delete packets randomly", §6.3.2) but deterministically: a
// hash of the packet ID.
func evictUtility(e *buffer.Entry, _ int64) float64 {
	h := uint64(e.P.ID) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return float64(h%1000) / 1000
}

func sortOldest(es []*buffer.Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].P.Created != es[j].P.Created {
			return es[i].P.Created < es[j].P.Created
		}
		return es[i].P.ID < es[j].P.ID
	})
}
