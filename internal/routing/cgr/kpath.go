package cgr

import (
	"math"
	"strconv"
	"strings"

	"rapid/internal/packet"
)

// planBest is the policy-aware planning entry: the earliest-arrival
// path under the packet's copy-disjointness bans, widened across up to
// KPaths Yen alternates when the policy asks for it. With KPaths == 1
// (and no live sibling routes) it is a bare plan() call — the classic
// single-path arm never pays for the search.
func (pl *Planner) planBest(p *packet.Packet, from packet.NodeID, now float64, r0 int) *route {
	ban := pl.banFor(p.ID)
	best := pl.plan(p, from, now, r0, ban)
	if best == nil || pl.pol.KPaths <= 1 {
		return best
	}
	cands := pl.kAlternates(p, from, now, r0, ban, best)
	return pl.selectRoute(cands, now)
}

// kAlternates runs a Yen-style deviation search for up to KPaths
// loopless alternate contact paths. For each hop index i of the most
// recently accepted path, the root prefix hops[:i] is fixed and a spur
// is planned from the deviation node with the root's windows and nodes
// banned (loop prevention) plus, for every accepted path sharing the
// same window prefix, its window at position i (forcing a genuinely
// different continuation). Spur searches run under the full feasibility
// rules of plan() — residual capacity, snapshot ordering, buffer
// headroom — so every alternate returned is committable as-is. The
// result is ordered by acceptance (earliest arrival first) and always
// starts with best.
func (pl *Planner) kAlternates(p *packet.Packet, from packet.NodeID, now float64, r0 int, base *banSet, best *route) []*route {
	accepted := []*route{best}
	seen := map[string]bool{routeKey(best): true}
	var pool []*route
	// One spur ban set, refilled per deviation: plan() stamps it before
	// searching and keeps no reference.
	ban := &banSet{parent: base}
	for len(accepted) < pl.pol.KPaths {
		cur := accepted[len(accepted)-1]
		for i := 0; i < len(cur.hops); i++ {
			spurFrom, spurT, spurRank := from, now, r0
			if i > 0 {
				h := cur.hops[i-1]
				spurFrom, spurT = h.to, h.arrive
				// The spur's custody rank at the deviation node mirrors
				// how the prefix would really arrive there: a point
				// meeting stamps its window index, a streamed window
				// completes after every pre-scheduled same-instant event.
				if pl.g.Edges[h.win].Rate == 0 {
					spurRank = h.win
				} else {
					spurRank = rankStreamed
				}
			}
			ban.wins = ban.wins[:0]
			ban.nodes = append(ban.nodes[:0], from)
			for j := 0; j < i; j++ {
				ban.wins = append(ban.wins, cur.hops[j].win)
				ban.nodes = append(ban.nodes, cur.hops[j].to)
			}
			for _, q := range accepted {
				if len(q.hops) > i && samePrefix(q, cur, i) {
					ban.wins = append(ban.wins, q.hops[i].win)
				}
			}
			spur := pl.plan(p, spurFrom, spurT, spurRank, ban)
			if spur == nil {
				continue
			}
			full := &route{hops: append(append([]hop(nil), cur.hops[:i]...), spur.hops...)}
			key := routeKey(full)
			if seen[key] {
				continue
			}
			seen[key] = true
			pool = append(pool, full)
		}
		// Accept the cheapest pooled candidate (arrival, then hop
		// count, then window sequence — all deterministic).
		pick := -1
		for j, c := range pool {
			if pick < 0 || betterCand(c, pool[pick]) {
				pick = j
			}
		}
		if pick < 0 {
			break
		}
		accepted = append(accepted, pool[pick])
		pool = append(pool[:pick], pool[pick+1:]...)
	}
	return accepted
}

// samePrefix reports whether two routes traverse identical windows up
// to (excluding) hop index i.
func samePrefix(a, b *route, i int) bool {
	for j := 0; j < i; j++ {
		if a.hops[j].win != b.hops[j].win {
			return false
		}
	}
	return true
}

// routeKey is a route's identity for deduplication: its window-index
// sequence.
func routeKey(r *route) string {
	var b strings.Builder
	for _, h := range r.hops {
		b.WriteString(strconv.Itoa(h.win))
		b.WriteByte(',')
	}
	return b.String()
}

// betterCand orders Yen candidates: earlier arrival, then fewer hops,
// then lexicographically smaller window sequence.
func betterCand(a, b *route) bool {
	if a.arriveAt() != b.arriveAt() {
		return a.arriveAt() < b.arriveAt()
	}
	if len(a.hops) != len(b.hops) {
		return len(a.hops) < len(b.hops)
	}
	for i := range a.hops {
		if a.hops[i].win != b.hops[i].win {
			return a.hops[i].win < b.hops[i].win
		}
	}
	return false
}

// selectRoute picks the route to commit from the Yen alternates:
// among candidates whose in-flight time is within (1+DelaySlack)× the
// earliest one's, the widest — largest bottleneck residual — wins;
// ties keep the earlier-accepted (earlier-arriving) candidate. Routing
// onto the widest feasible alternate trades a bounded delay increase
// for congestion headroom on the contested windows.
func (pl *Planner) selectRoute(cands []*route, now float64) *route {
	best := cands[0]
	limit := best.arriveAt() + pl.pol.DelaySlack*(best.arriveAt()-now)
	pick, pickWidth := best, pl.width(best)
	for _, c := range cands[1:] {
		if c.arriveAt() > limit+timeEps {
			continue
		}
		if w := pl.width(c); w > pickWidth {
			pick, pickWidth = c, w
		}
	}
	return pick
}

// width is a route's bottleneck residual capacity — the tightest
// window it traverses, before its own commitment.
func (pl *Planner) width(r *route) int64 {
	w := int64(math.MaxInt64)
	for _, h := range r.hops {
		if res := pl.residual[h.win]; res < w {
			w = res
		}
	}
	return w
}
