// Package randomw implements the Random baseline of §6.1: "Random
// replicates randomly chosen packets for the duration of the transfer
// opportunity", with random eviction under storage pressure. With
// routing.Config{AcksOnly: true} it becomes the "Random with acks"
// component arm of Fig. 14.
package randomw

import (
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// Router replicates uniformly at random, deterministically seeded by
// the engine's "randomw" stream.
type Router struct {
	node *routing.Node
}

// New returns a Random router factory.
func New() routing.RouterFactory {
	return func(packet.NodeID) routing.Router { return &Router{} }
}

// Name implements routing.Router.
func (r *Router) Name() string { return "random" }

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) { r.node = n }

// Generate implements routing.Router.
func (r *Router) Generate(p *packet.Packet, now float64) {
	r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true}, r.evict)
}

// Inventory implements routing.Router (Random announces nothing).
func (r *Router) Inventory(now float64) []control.InventoryItem { return nil }

// DirectQueue implements routing.Router: any deterministic order; the
// destination takes everything that fits regardless.
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	var out []*buffer.Entry
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst == peer {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.ID < out[j].P.ID })
	return out
}

// PlanReplication implements routing.Router: a uniform shuffle of the
// buffer.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	var out []*buffer.Entry
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst != peer.ID {
			out = append(out, e)
		}
	}
	// Stable pre-order, then Fisher-Yates with the engine's stream so
	// runs are reproducible per seed.
	sort.Slice(out, func(i, j int) bool { return out[i].P.ID < out[j].P.ID })
	rng := r.node.Net.Engine.Rand("randomw")
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Accept implements routing.Router.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, r.evict)
}

// evict drops a pseudo-random victim, deterministically derived from
// the packet ID.
func (r *Router) evict(e *buffer.Entry, _ int64) float64 {
	h := uint64(e.P.ID)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return float64(h%1000) / 1000
}
