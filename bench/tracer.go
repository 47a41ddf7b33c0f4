package main

import (
	"fmt"
	"time"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// This file times calls into the routing layers from outside: decorators
// wrap the routers a routing.RouterFactory builds and the packet.Source
// a streaming run draws from. Nothing inside the simulator changes.
//
// A decorator must forward exactly the optional routing interfaces of
// the router it wraps: adding SessionConfined would move an unconfined
// router onto the parallel engine, and dropping ReplicaDelayEstimator
// would silently change RAPID's replica priming. Go's type assertions
// see the decorator's method set, so each supported set of optional
// interfaces gets its own decorator type (rapidTraced, cgrTraced), and
// wrap refuses any other set.

// clock reads the wall clock. It is the benchmark's only clock read.
func clock() time.Time {
	return time.Now() //rapidlint:allow nondeterminism — benchmark timing; never feeds simulation state
}

// span accumulates the calls and busy time of one traced method.
type span struct {
	calls int64
	ns    int64
}

// done closes a call that started at t0.
func (s *span) done(t0 time.Time) {
	s.calls++
	s.ns += int64(clock().Sub(t0))
}

// Traced router methods, in reporting order.
const (
	mGenerate = iota
	mInventory
	mDirectQueue
	mPlan
	mAccept
	mReplicaDelay
	mPrime
	mOnDelivered
	nMethods
)

// methodNames are the metric stems of the traced methods.
func methodNames() [nMethods]string {
	return [nMethods]string{"generate", "inventory", "direct_queue", "plan", "accept",
		"replica_delay", "prime", "on_delivered"}
}

// nodeCounts are one node's counters. Each router instance owns its
// own, so sessions running in parallel waves (which never share a node)
// never write the same counters.
type nodeCounts struct {
	spans          [nMethods]span
	inventoryItems int64
	planCandidates int64
	acceptRejects  int64
}

// routerTracer wraps a router factory and keeps every node's counters.
type routerTracer struct {
	// layer is the metric prefix: "core" for RAPID, "cgr" for CGR.
	layer string
	nodes []*nodeCounts
}

// wrapFactory returns a factory building traced routers. The factory is
// called once per node, serially, while the network is built.
func (t *routerTracer) wrapFactory(f routing.RouterFactory) routing.RouterFactory {
	return func(id packet.NodeID) routing.Router {
		c := &nodeCounts{}
		t.nodes = append(t.nodes, c)
		r, layer, err := wrap(f(id), c)
		if err != nil {
			panic(err)
		}
		t.layer = layer
		return r
	}
}

// total sums every node's counters, once the run is over. The sums are
// integers, so their order cannot change them.
func (t *routerTracer) total() nodeCounts {
	var sum nodeCounts
	for _, c := range t.nodes {
		for m := range sum.spans {
			sum.spans[m].calls += c.spans[m].calls
			sum.spans[m].ns += c.spans[m].ns
		}
		sum.inventoryItems += c.inventoryItems
		sum.planCandidates += c.planCandidates
		sum.acceptRejects += c.acceptRejects
	}
	return sum
}

// optionalInterfaces lists the optional routing interfaces r satisfies.
func optionalInterfaces(r routing.Router) []string {
	var out []string
	if _, ok := r.(routing.Gossiper); ok {
		out = append(out, "Gossiper")
	}
	if _, ok := r.(routing.ReplicationObserver); ok {
		out = append(out, "ReplicationObserver")
	}
	if _, ok := r.(routing.ReplicaDelayEstimator); ok {
		out = append(out, "ReplicaDelayEstimator")
	}
	if _, ok := r.(routing.ReplicaDelaySnapshotter); ok {
		out = append(out, "ReplicaDelaySnapshotter")
	}
	if _, ok := r.(routing.SchedulePrimer); ok {
		out = append(out, "SchedulePrimer")
	}
	if _, ok := r.(routing.DeliveryObserver); ok {
		out = append(out, "DeliveryObserver")
	}
	if _, ok := r.(routing.SessionConfined); ok {
		out = append(out, "SessionConfined")
	}
	return out
}

// rapidOptional is the optional interface set of core.Router.
type rapidOptional interface {
	routing.ReplicaDelayEstimator
	routing.ReplicaDelaySnapshotter
	routing.SessionConfined
}

// cgrOptional is the optional interface set of cgr.Router.
type cgrOptional interface {
	routing.SchedulePrimer
	routing.DeliveryObserver
}

// wrap decorates r with a traced router of exactly r's optional
// interface set, returning the metric layer it reports under.
func wrap(r routing.Router, c *nodeCounts) (routing.Router, string, error) {
	base := tracedRouter{inner: r, c: c}
	set := fmt.Sprint(optionalInterfaces(r))
	switch set {
	case "[ReplicaDelayEstimator ReplicaDelaySnapshotter SessionConfined]":
		return &rapidTraced{tracedRouter: base, opt: r.(rapidOptional)}, "core", nil
	case "[SchedulePrimer DeliveryObserver]":
		return &cgrTraced{tracedRouter: base, opt: r.(cgrOptional)}, "cgr", nil
	}
	return nil, "", fmt.Errorf("bench: no exact decorator for %s with optional interfaces %s", r.Name(), set)
}

// tracedRouter times the routing.Router methods every protocol has.
type tracedRouter struct {
	inner routing.Router
	c     *nodeCounts
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Attach(n *routing.Node) { r.inner.Attach(n) }

func (r *tracedRouter) Generate(p *packet.Packet, now float64) {
	t0 := clock()
	r.inner.Generate(p, now)
	r.c.spans[mGenerate].done(t0)
}

func (r *tracedRouter) Inventory(now float64) []control.InventoryItem {
	t0 := clock()
	out := r.inner.Inventory(now)
	r.c.spans[mInventory].done(t0)
	r.c.inventoryItems += int64(len(out))
	return out
}

func (r *tracedRouter) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	t0 := clock()
	out := r.inner.DirectQueue(peer, now)
	r.c.spans[mDirectQueue].done(t0)
	return out
}

func (r *tracedRouter) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	t0 := clock()
	out := r.inner.PlanReplication(peer, now)
	r.c.spans[mPlan].done(t0)
	r.c.planCandidates += int64(len(out))
	return out
}

func (r *tracedRouter) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	t0 := clock()
	ok := r.inner.Accept(e, from, now)
	r.c.spans[mAccept].done(t0)
	if !ok {
		r.c.acceptRejects++
	}
	return ok
}

// rapidTraced decorates core.Router.
type rapidTraced struct {
	tracedRouter
	opt rapidOptional
}

func (r *rapidTraced) SessionConfined() {}

func (r *rapidTraced) EstimateReplicaDelay(e *buffer.Entry, holder *routing.Node, now float64) float64 {
	t0 := clock()
	d := r.opt.EstimateReplicaDelay(e, holder, now)
	r.c.spans[mReplicaDelay].done(t0)
	return d
}

// SnapshotReplicaDelays times the snapshot and every later evaluation
// of the closure it returns.
func (r *rapidTraced) SnapshotReplicaDelays(holder *routing.Node) routing.ReplicaDelayFunc {
	t0 := clock()
	f := r.opt.SnapshotReplicaDelays(holder)
	r.c.spans[mReplicaDelay].done(t0)
	return func(e *buffer.Entry) float64 {
		t0 := clock()
		d := f(e)
		r.c.spans[mReplicaDelay].done(t0)
		return d
	}
}

// cgrTraced decorates cgr.Router.
type cgrTraced struct {
	tracedRouter
	opt cgrOptional
}

func (r *cgrTraced) PrimeSchedule(s *trace.Schedule, net *routing.Network) {
	t0 := clock()
	r.opt.PrimeSchedule(s, net)
	r.c.spans[mPrime].done(t0)
}

func (r *cgrTraced) OnDelivered(id packet.ID, now float64) {
	t0 := clock()
	r.opt.OnDelivered(id, now)
	r.c.spans[mOnDelivered].done(t0)
}

// tracedSource times a streaming workload's Next calls.
type tracedSource struct {
	inner packet.Source
	next  span
}

func (s *tracedSource) Next() (*packet.Packet, bool) {
	t0 := clock()
	p, ok := s.inner.Next()
	s.next.done(t0)
	return p, ok
}

func (s *tracedSource) Endpoints() []packet.NodeID { return s.inner.Endpoints() }
