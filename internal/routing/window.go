package routing

import (
	"slices"

	"rapid/internal/buffer"
	"rapid/internal/packet"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

// This file implements duration-aware contacts: a trace.Contact with
// temporal extent opens at its start event, runs the session's control
// phase against a byte budget of RateBps·Duration, and snapshots the
// session's four queues. It then runs the session's selection and
// commit (session.go) spread over time: each selected packet streams
// as a timed event whose completion instant depends on the link rate,
// and commits when it completes. A packet that cannot finish before the
// window closes is cut off. Nodes serving several overlapping windows
// share their radio fairly: each node divides its rate equally among
// its live windows, and a window runs at the rate its more-contended
// endpoint allows. Point meetings (and zero-duration contacts, which
// degrade to them) run the session at one instant.

// windowState tracks the live windowed contacts of one run and each
// node's radio load (how many windows it is currently serving), indexed
// by node ID. It is allocated lazily so point-meeting runs carry no
// window machinery.
type windowState struct {
	live []*winContact // insertion order; deterministic iteration
	load []int
}

// windows returns the network's window registry, creating it on first
// windowed contact with a radio load slot for every node of the run.
func (n *Network) windows() *windowState {
	if n.win == nil {
		hi := packet.NodeID(0)
		for id := range n.Nodes {
			hi = max(hi, id)
		}
		n.win = &windowState{load: make([]int, hi+1)}
	}
	return n.win
}

// winContact is one live windowed contact.
type winContact struct {
	s *Session
	c trace.Contact
	// loop holds copies of the queues and plans taken at window start.
	// The routers' slices are scratch: a window outlives them, and
	// overlapping windows at one node would clobber each other's.
	loop transferLoop

	cur    *transfer // in-flight packet, nil when idle or drained
	closed bool
}

// transfer is one packet streaming across a window.
type transfer struct {
	q         int // the session queue it was selected from
	e         *buffer.Entry
	remaining float64 // bytes still to stream
	rate      float64 // current effective rate, bytes/s
	since     float64 // time progress was last accrued
	done      sim.Handle
}

// accrue folds elapsed streaming time into the transfer's progress.
func (t *transfer) accrue(now float64) {
	t.remaining -= t.rate * (now - t.since)
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.since = now
}

// openWindow begins a windowed contact at its start event. The control
// phase runs once at window start — metadata is exchanged "at the start
// of a transfer opportunity" (§4.2) — charged against the full-window
// byte budget; queue and plan snapshots are taken then too, so packets
// arriving mid-window wait for the next contact, exactly as they miss
// a point meeting.
func openWindow(net *Network, c trace.Contact) *winContact {
	// A window opening against a churned-down radio never establishes:
	// the whole contact is lost (it does not defer to the node's return
	// — the pass geometry has moved on by then).
	s := beginSession(net, net.Node(c.A), net.Node(c.B), c.Capacity(), net.Now())
	if s == nil {
		return nil
	}
	// A window outlives its opening event and is always driven serially,
	// so its accounting goes straight to the collector.
	s.stats = &net.Collector.Delta
	s.control()

	w := &winContact{s: s, c: c}
	l := &w.loop
	// A window reads every plan as a slice and copies it, never pulls
	// one: it outlives its opening event, and a later contact at either
	// node would rebuild the router's one pulled plan under it.
	for q := range l.queues {
		l.queues[q] = slices.Clone(s.queue(q))
		if q >= planXY {
			// Pin the plan's replica prices now, while it is the
			// router's last plan: an interleaved contact at the same
			// node may plan for another peer mid-window.
			from, to := s.side(q)
			if snap, ok := from.Router.(ReplicaDelaySnapshotter); ok {
				l.est[q-planXY] = snap.SnapshotReplicaDelays(to)
			}
		}
	}
	l.filled = uint8(len(l.queues))

	ws := net.windows()
	ws.live = append(ws.live, w)
	ws.load[c.A]++
	ws.load[c.B]++
	// The new window dilutes its endpoints' radios: slow down any
	// in-flight transfer sharing a node with this contact.
	ws.retime(net, s.now, c.A, c.B)
	w.startNext(net, s.now)
	return w
}

// closeWindow ends a windowed contact at its end event. An in-flight
// transfer is cut off: the bytes already radiated are spent against the
// budget (the radio sent them) but the receiver never obtains a usable
// packet, so nothing is delivered or replicated.
func closeWindow(net *Network, w *winContact) {
	if w.closed {
		return
	}
	w.closed = true
	now := net.Now()
	ws := net.windows()
	if t := w.cur; t != nil {
		t.accrue(now)
		t.done.Cancel()
		if sent := int64(float64(t.e.P.Size) - t.remaining); sent > 0 {
			if sent > w.s.budget {
				sent = w.s.budget
			}
			w.s.budget -= sent
		}
		w.cur = nil
	}
	for i, lc := range ws.live {
		if lc == w {
			ws.live = append(ws.live[:i], ws.live[i+1:]...)
			break
		}
	}
	ws.load[w.c.A]--
	ws.load[w.c.B]--
	// The endpoints' radios are free again: speed up survivors.
	ws.retime(net, now, w.c.A, w.c.B)
	if h := net.hooks; h != nil && h.OnOpportunityDone != nil {
		capacity := w.c.Capacity()
		h.OnOpportunityDone(w.c.A, w.c.B, capacity, capacity-w.s.budget, true, now)
	}
}

// effRate is the window's current effective rate under fair radio
// sharing: each node divides its radio equally among its live windows,
// and a window runs at the rate its more-contended endpoint allows.
func (w *winContact) effRate(ws *windowState) float64 {
	den := max(ws.load[w.c.A], ws.load[w.c.B], 1)
	return w.c.RateBps / float64(den)
}

// retime re-shares the radios of the given nodes: every in-flight
// transfer on a live window touching one of them accrues progress at
// its old rate, then is rescheduled at the new effective rate.
func (ws *windowState) retime(net *Network, now float64, a, b packet.NodeID) {
	for _, lc := range ws.live {
		if lc.cur == nil || (lc.c.A != a && lc.c.B != a && lc.c.A != b && lc.c.B != b) {
			continue
		}
		lc.cur.accrue(now)
		lc.cur.done.Cancel()
		lc.schedule(net, now)
	}
}

// schedule (re)computes the in-flight transfer's effective rate and
// books its completion event.
func (w *winContact) schedule(net *Network, now float64) {
	t := w.cur
	t.rate = w.effRate(net.win)
	t.since = now
	t.done = net.Engine.ScheduleFunc(now+t.remaining/t.rate, func(*sim.Engine) {
		w.complete(net)
	})
}

// complete commits the in-flight transfer at its completion event and
// moves on to the next candidate.
func (w *winContact) complete(net *Network) {
	if w.closed || w.cur == nil {
		return
	}
	t := w.cur
	w.cur = nil
	now := net.Now()
	w.s.commit(&w.loop, t.q, t.e, now)
	w.startNext(net, now)
}

// startNext selects the window's next transfer and begins streaming
// it; a drained window idles until it closes.
func (w *winContact) startNext(net *Network, now float64) {
	if q, e, ok := w.s.next(&w.loop); ok {
		w.cur = &transfer{q: q, e: e, remaining: float64(e.P.Size)}
		w.schedule(net, now)
	}
}

// churnClose cuts off every live window touching a node whose radio
// just went down: in-flight transfers are truncated exactly as at a
// natural window close (closeWindow charges the radiated bytes and
// re-shares the surviving radios).
func (n *Network) churnClose(id packet.NodeID) {
	if n.win == nil {
		return
	}
	// Snapshot first: closeWindow splices the live list.
	var victims []*winContact
	for _, w := range n.win.live {
		if w.c.A == id || w.c.B == id {
			victims = append(victims, w)
		}
	}
	for _, w := range victims {
		closeWindow(n, w)
	}
}
