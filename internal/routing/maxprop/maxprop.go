// Package maxprop implements the MaxProp routing protocol [Burgess et
// al., Infocom 2006] — the paper's closest competitor ("of recent
// related work, it is closest to rapid's objectives", §6.1): packets
// are ranked by estimated delivery likelihood along a path of meeting
// probabilities; young packets (low hop count) get head-of-line
// priority; delivery notifications are flooded to purge replicas.
//
// Run MaxProp with routing.Config{AcksOnly: true} so the runtime's
// control plane carries its acknowledgment flood; its
// meeting-probability vectors travel through the free protocol gossip
// hook (the paper charges only RAPID for control traffic, §6.1).
package maxprop

import (
	"math"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// HopThreshold is the head-of-line boundary: packets that have traveled
// fewer hops are served by hop count before all others are served by
// path cost. (MaxProp adapts this threshold to observed transfer sizes;
// a fixed small threshold reproduces the "prioritizes new packets"
// behaviour the paper discusses in §6.3.1.)
const HopThreshold = 3

// Router implements MaxProp for one node.
type Router struct {
	node *routing.Node
	// probs holds meeting-probability vectors: own and gossiped.
	probs map[packet.NodeID]map[packet.NodeID]float64
	// ver/costVer/costs memoize the all-destinations path-cost map:
	// PathCost is evaluated per buffered packet per contact, but the
	// underlying vectors change only at gossip time.
	ver     uint64
	costVer uint64
	costs   map[packet.NodeID]float64
}

// New returns a MaxProp router factory.
func New() routing.RouterFactory {
	return func(packet.NodeID) routing.Router {
		return &Router{probs: make(map[packet.NodeID]map[packet.NodeID]float64)}
	}
}

// Name implements routing.Router.
func (r *Router) Name() string { return "maxprop" }

// SessionConfined implements routing.SessionConfined: gossip copies
// every received vector, so all mutable state is per-node.
func (r *Router) SessionConfined() {}

// Attach implements routing.Router.
func (r *Router) Attach(n *routing.Node) {
	r.node = n
	r.probs[n.ID] = make(map[packet.NodeID]float64)
}

// Generate implements routing.Router.
func (r *Router) Generate(p *packet.Packet, now float64) {
	r.node.Store.Insert(&buffer.Entry{P: p, ReceivedAt: now, Own: true}, r.evictUtility())
}

// Inventory implements routing.Router. MaxProp announces nothing beyond
// acks (which the runtime's AcksOnly exchange carries).
func (r *Router) Inventory(now float64) []control.InventoryItem { return nil }

// GossipWith implements routing.Gossiper: update own meeting vector and
// swap vector tables with the peer.
func (r *Router) GossipWith(peer routing.Router, now float64) {
	mp, ok := peer.(*Router)
	if !ok {
		return
	}
	r.observeMeeting(mp.node.ID)
	// Receive every vector the peer knows (copy-on-write: vectors are
	// replaced wholesale on update, so sharing is safe only by copy).
	for owner, vec := range mp.probs {
		if owner == r.node.ID {
			continue
		}
		cp := make(map[packet.NodeID]float64, len(vec))
		for k, v := range vec {
			cp[k] = v
		}
		r.probs[owner] = cp
	}
	r.ver++
}

// observeMeeting applies MaxProp's incremental averaging: bump the met
// node's probability by 1 and re-normalize the vector to sum to 1.
func (r *Router) observeMeeting(peer packet.NodeID) {
	vec := r.probs[r.node.ID]
	vec[peer]++
	// Sum in sorted node order: FP addition is not associative, so a
	// map-order sum would make the normalized vector — and every
	// downstream path cost — differ bit-wise from run to run
	// (rapidlint/maporder).
	ids := make([]packet.NodeID, 0, len(vec))
	for k := range vec {
		ids = append(ids, k)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, k := range ids {
		sum += vec[k]
	}
	for k := range vec {
		vec[k] /= sum
	}
	r.ver++
}

// PathCost estimates the cost of delivering to dst: the minimum over
// paths (up to 4 hops) of the summed per-hop costs (1 - p), using all
// known vectors. Unreachable destinations cost +Inf. Costs for all
// destinations are computed at once and memoized until the next gossip.
func (r *Router) PathCost(dst packet.NodeID) float64 {
	if r.costs == nil || r.costVer != r.ver {
		r.costs = r.allCosts()
		r.costVer = r.ver
	}
	if d, ok := r.costs[dst]; ok {
		return d
	}
	return math.Inf(1)
}

// allCosts runs the hop-bounded relaxation from this node.
func (r *Router) allCosts() map[packet.NodeID]float64 {
	const maxHops = 4
	dist := map[packet.NodeID]float64{r.node.ID: 0}
	for hop := 0; hop < maxHops; hop++ {
		next := make(map[packet.NodeID]float64, len(dist))
		for k, v := range dist {
			next[k] = v
		}
		improved := false
		for u, du := range dist {
			vec, ok := r.probs[u]
			if !ok {
				continue
			}
			for v, p := range vec {
				c := du + (1 - p)
				if dv, ok := next[v]; !ok || c < dv {
					next[v] = c
					improved = true
				}
			}
		}
		dist = next
		if !improved {
			break
		}
	}
	return dist
}

// DirectQueue implements routing.Router: destined packets, lowest hop
// count first (freshest data first, MaxProp's delivery order).
func (r *Router) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	var out []*buffer.Entry
	for _, e := range r.node.Store.Entries() {
		if e.P.Dst == peer {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hops != out[j].Hops {
			return out[i].Hops < out[j].Hops
		}
		return out[i].P.ID < out[j].P.ID
	})
	return out
}

// PlanReplication implements routing.Router: head-of-line packets
// (hops < HopThreshold) by ascending hop count, then the rest by
// ascending path cost to their destinations.
func (r *Router) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	entries := r.node.Store.Entries()
	type cand struct {
		e    *buffer.Entry
		head bool
		key  float64
	}
	cands := make([]cand, 0, len(entries))
	for _, e := range entries {
		if e.P.Dst == peer.ID {
			continue
		}
		if e.Hops < HopThreshold {
			cands = append(cands, cand{e, true, float64(e.Hops)})
		} else {
			cands = append(cands, cand{e, false, r.PathCost(e.P.Dst)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].head != cands[j].head {
			return cands[i].head
		}
		if cands[i].key != cands[j].key {
			return cands[i].key < cands[j].key
		}
		return cands[i].e.P.ID < cands[j].e.P.ID
	})
	out := make([]*buffer.Entry, len(cands))
	for i, c := range cands {
		out[i] = c.e
	}
	return out
}

// Accept implements routing.Router: store with MaxProp's eviction
// policy — drop the packet with the worst (highest) path cost first,
// with high-hop-count packets going before head-of-line ones.
func (r *Router) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	return r.node.Store.Insert(e, r.evictUtility())
}

// evictUtility ranks entries for eviction (lowest kept value dropped
// first): head-of-line packets are valuable (high utility); the rest
// rank inversely to path cost.
func (r *Router) evictUtility() buffer.Utility {
	return func(e *buffer.Entry, _ int64) float64 {
		if e.Hops < HopThreshold {
			return 1e9 - float64(e.Hops)
		}
		c := r.PathCost(e.P.Dst)
		if math.IsInf(c, 1) {
			return -1e9
		}
		return -c
	}
}
