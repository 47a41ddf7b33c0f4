// Package prophet implements PRoPHET [Lindgren et al., SAPIR 2004]:
// probabilistic routing using delivery predictabilities with aging and
// transitivity. The paper's parameters are Pinit = 0.75, β = 0.25,
// γ = 0.98 (§6.1).
package prophet

import (
	"math"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Params are PRoPHET's tuning constants.
type Params struct {
	PInit float64 // predictability boost on meeting
	Beta  float64 // transitivity damping
	Gamma float64 // aging factor per AgingUnit
	// AgingUnit is the time quantum for γ-aging in seconds. The
	// PRoPHET paper leaves the unit abstract; scale it to the scenario
	// (tens of seconds for day-long traces, ~1 s for the 15-minute
	// synthetic runs).
	AgingUnit float64
}

// DefaultParams returns the paper's §6.1 values with a 30-second aging
// unit.
func DefaultParams() Params {
	return Params{PInit: 0.75, Beta: 0.25, Gamma: 0.98, AgingUnit: 30}
}

// Router implements PRoPHET for one node.
type Router struct {
	node *routing.Node
	par  Params
	p    map[packet.NodeID]float64 // delivery predictability
	aged float64                   // last aging time
	dq   []*buffer.Entry           // DirectQueue's scratch
}

// New returns a PRoPHET factory.
func New(par Params) routing.RouterFactory {
	if par.PInit <= 0 || par.PInit > 1 {
		par = DefaultParams()
	}
	if par.AgingUnit <= 0 {
		par.AgingUnit = 30
	}
	return func(packet.NodeID) routing.Router {
		return &Router{par: par, p: make(map[packet.NodeID]float64)}
	}
}

// Name implements routing.Router.
func (r *Router) Name() string { return "prophet" }

// SessionConfined implements routing.SessionConfined: delivery
// predictabilities are per-node maps, updated only for the session
// peer, and the scratch is per-node.
func (r *Router) SessionConfined() {}

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) { r.node = n }

// Predictability returns P(self, dst) after aging to `now`.
func (r *Router) Predictability(dst packet.NodeID, now float64) float64 {
	r.age(now)
	return r.p[dst]
}

// age applies γ^(Δt/unit) decay to the whole vector.
func (r *Router) age(now float64) {
	dt := now - r.aged
	if dt <= 0 {
		return
	}
	decay := math.Pow(r.par.Gamma, dt/r.par.AgingUnit)
	for k, v := range r.p {
		r.p[k] = v * decay
	}
	r.aged = now
}

// GossipWith implements routing.Gossiper: on meeting, boost the peer's
// predictability and apply the transitivity rule with the peer's
// vector.
func (r *Router) GossipWith(peer routing.Router, now float64) {
	pr, ok := peer.(*Router)
	if !ok {
		return
	}
	r.age(now)
	pr.age(now)
	// Direct boost: P(a,b) = P + (1-P) * Pinit.
	pab := r.p[pr.node.ID]
	r.p[pr.node.ID] = pab + (1-pab)*r.par.PInit
	// Transitivity: P(a,c) = max(P(a,c), P(a,b)·P(b,c)·β).
	pab = r.p[pr.node.ID]
	for c, pbc := range pr.p {
		if c == r.node.ID {
			continue
		}
		if t := pab * pbc * r.par.Beta; t > r.p[c] {
			r.p[c] = t
		}
	}
}

// Generate implements routing.Router.
func (r *Router) Generate(p *packet.Packet, now float64) {
	r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true}, evictFIFO)
}

// Inventory implements routing.Router (PRoPHET exchanges only its
// summary vector, which rides the gossip hook).
func (r *Router) Inventory(now float64) []control.InventoryItem { return nil }

// DirectQueue implements routing.Router: oldest first.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	// The store keeps the queue in this order; copy it so the session
	// can remove entries while iterating.
	r.dq = append(r.dq[:0], r.node.Store.Queue(peer)...)
	return r.dq
}

// PlanReplication implements routing.Router: replicate packets whose
// destination the peer predicts better than we do (the GRTR forwarding
// strategy, replication flavor), highest peer-predictability first.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	pr, ok := peer.Router.(*Router)
	if !ok {
		return nil
	}
	type cand struct {
		e   *buffer.Entry
		key float64
	}
	var cands []cand
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst == peer.ID {
			continue
		}
		pp := pr.Predictability(e.P.Dst, now)
		if pp > r.Predictability(e.P.Dst, now) {
			cands = append(cands, cand{e, pp})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].key != cands[j].key {
			return cands[i].key > cands[j].key
		}
		return older(cands[i].e, cands[j].e)
	})
	out := make([]*buffer.Entry, len(cands))
	for i, c := range cands {
		out[i] = c.e
	}
	return out
}

// Accept implements routing.Router.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, evictFIFO)
}

// evictFIFO drops the oldest-received packet first (PRoPHET's FIFO
// queue management).
func evictFIFO(e *buffer.Entry, _ int64) float64 { return e.ReceivedAt }

func older(a, b *buffer.Entry) bool {
	if a.P.Created != b.P.Created {
		return a.P.Created < b.P.Created
	}
	return a.P.ID < b.P.ID
}
