package trace

import (
	"math"
	"sort"

	"rapid/internal/minheap"
	"rapid/internal/packet"
)

// PlanCursor streams a contact plan's occurrences over [0, Duration)
// without ever holding the expanded schedule: memory is
// O(len(plan.Contacts)), independent of the horizon. It is the plan's
// only enumeration of occurrences; Expand drains it. Point occurrences
// (Window == 0) come out as zero-duration Contacts; the consumer
// distinguishes them with Contact.Windowed.
//
// Occurrence i of a contact starts at Start + i·Period, computed from
// the integer counter, never by repeated accumulation: t += Period
// drifts by an ULP every step and, over the 10⁴–10⁵ occurrences of a
// constellation-scale plan, would break the property that the same
// plan always yields the byte-identical sequence. Occurrences landing
// exactly on the horizon are excluded (Schedule.Validate's half-open
// interval); windowed occurrences are clipped to the horizon (a pass
// cut off by the end of the experiment transfers only its in-horizon
// share). Contacts with a non-finite Start or Period, and every
// contact of a plan with a non-finite Duration, yield nothing.
//
// Yield order is a total order: globally nondecreasing in time; at
// equal times point occurrences before windowed ones (the runtime's
// meeting and contact bands), then by A, B, the unclipped Window, and
// last the contact's index in the plan.
//
// With merging enabled, back-to-back windowed occurrences of one plan
// contact (Window == Period: a continuously available link modeled as
// abutting passes) coalesce into a single window spanning the whole
// run of occurrences — the run-length form of the schedule. Merging
// changes runtime semantics (one window open instead of one per pass),
// so it is opt-in.
type PlanCursor struct {
	plan    *ContactPlan
	horizon float64
	merge   bool
	h       minheap.Heap[occ]
}

// occ is one periodic contact's next pending occurrence.
type occ struct {
	t float64 // occurrence start: Start + i·Period
	c int     // index into plan.Contacts
	i int64   // occurrence counter
}

// less orders occurrences (time, windowed?, A, B, Window, contact
// index): the yield order documented on PlanCursor.
func (cp *ContactPlan) less(a, b occ) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	ca, cb := cp.Contacts[a.c], cp.Contacts[b.c]
	aw, bw := ca.Window > 0, cb.Window > 0
	if aw != bw {
		return !aw // points (meetings) schedule before windows
	}
	if ca.A != cb.A {
		return ca.A < cb.A
	}
	if ca.B != cb.B {
		return ca.B < cb.B
	}
	if aw && ca.Window != cb.Window {
		return ca.Window < cb.Window
	}
	return a.c < b.c
}

// Cursor returns a streaming iterator over the plan's occurrences.
// mergeAbutting enables back-to-back window coalescing (see PlanCursor).
func (cp *ContactPlan) Cursor(mergeAbutting bool) *PlanCursor {
	pc := &PlanCursor{plan: cp, horizon: cp.Duration, merge: mergeAbutting}
	pc.h.Less = cp.less
	for ci, c := range cp.Contacts {
		if cp.occurs(c) {
			pc.h.Items = append(pc.h.Items, occ{t: c.Start, c: ci})
		}
	}
	pc.h.Init()
	return pc
}

// occurs reports whether contact c has an occurrence within the
// horizon: its first occurrence starts before a finite Duration.
// Validate rejects a non-finite horizon, Start or Period; an
// unvalidated plan degrades to skipping them rather than looping on
// them (a NaN or Inf horizon never ends a periodic contact, an Inf
// period makes Start + 1·Period NaN).
func (cp *ContactPlan) occurs(c PeriodicContact) bool {
	return !math.IsInf(cp.Duration, 1) &&
		!math.IsNaN(c.Start) && !math.IsInf(c.Start, 0) &&
		!math.IsNaN(c.Period) && !math.IsInf(c.Period, 0) &&
		c.Start < cp.Duration
}

// Next returns the next occurrence in global schedule order; ok is
// false when the plan is exhausted within the horizon.
func (pc *PlanCursor) Next() (Contact, bool) {
	if pc.h.Len() == 0 {
		return Contact{}, false
	}
	o := pc.h.Pop()
	c := pc.plan.Contacts[o.c]
	out := Contact{A: c.A, B: c.B, Start: o.t}
	if c.Window > 0 {
		// Every pending occurrence starts before the horizon, so a
		// window clipped to it keeps a positive duration.
		w := c.Window
		if o.t+w > pc.horizon {
			w = pc.horizon - o.t
		}
		out.Duration = w
		out.RateBps = c.RateBps
		if pc.merge && c.Period > 0 && c.Window == c.Period {
			// Occurrences abut exactly: coalesce the remaining run into
			// one window reaching the horizon (or the occurrence cap) —
			// this contact is then exhausted.
			out.Duration = min(c.at(int64(pc.plan.count(c)-1))+c.Window, pc.horizon) - o.t
			return out, true
		}
	} else {
		out.Bytes = c.Bytes
	}
	pc.advance(o, c)
	return out, true
}

// advance pushes the contact's following occurrence, if any remains
// within the horizon and the MaxOccurrences cap.
func (pc *PlanCursor) advance(o occ, c PeriodicContact) {
	if c.Period <= 0 {
		return // one-shot
	}
	if i, t := o.i+1, c.at(o.i+1); i <= MaxOccurrences && t < pc.horizon {
		pc.h.Push(occ{t: t, c: o.c, i: i})
	}
}

// at is the start of occurrence i of c: Start + i·Period from the
// integer counter.
func (c PeriodicContact) at(i int64) float64 { return c.Start + float64(i)*c.Period }

// count returns how many occurrences of c, which must occur, the
// cursor yields: the counters i <= MaxOccurrences with at(i) before the
// horizon, found by bisection since at is monotone in i.
func (cp *ContactPlan) count(c PeriodicContact) int {
	if c.Period <= 0 {
		return 1
	}
	return sort.Search(MaxOccurrences+1, func(i int) bool { return c.at(int64(i)) >= cp.Duration })
}

// Occurrences returns how many point and window occurrences the plan's
// unmerged cursor yields, counted per contact from the cursor's own
// counter arithmetic rather than by draining it.
func (cp *ContactPlan) Occurrences() (points, windows int) {
	for _, c := range cp.Contacts {
		switch {
		case !cp.occurs(c):
		case c.Window > 0:
			windows += cp.count(c)
		default:
			points += cp.count(c)
		}
	}
	return points, windows
}

// Nodes returns the sorted set of node IDs of the contacts that occur
// within the horizon — the participant set of a run driven directly
// off the plan, equal to Expand().Nodes() but computed without
// expanding occurrences.
func (cp *ContactPlan) Nodes() []packet.NodeID {
	seen := map[packet.NodeID]bool{}
	for _, c := range cp.Contacts {
		if !cp.occurs(c) {
			continue
		}
		seen[c.A] = true
		seen[c.B] = true
	}
	out := make([]packet.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
