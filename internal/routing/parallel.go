package routing

import (
	"runtime"

	"rapid/internal/packet"
	"rapid/internal/sim"
)

// This file is the routing layer's side of the parallel engine
// (sim.Engine.SetWorkers): the two hot event kinds of every run — point
// contact sessions and packet creations — are sim.ShardEvents keyed by
// their endpoint node IDs, so the engine can batch consecutive events,
// execute each as soon as the batch's earlier events on its endpoints
// have executed, spread across a worker pool, and commit their
// globally ordered effects in exact serial pop order. The serial
// engine runs the same events whole (Execute). Everything else (window
// opens/closes, churn toggles) stays a plain event and acts as a flush
// barrier, so a parallel run is byte-identical to a serial one.
//
// A session's mutable footprint is its two endpoint nodes: buffer
// store, control state (meeting estimator, ack table, replica
// metadata), and the router's per-node caches. That is exactly the
// engine's conflict rule, provided the routers themselves stay inside
// it — which is what the SessionConfined marker asserts. Sessions also
// write delivery-record fields of packets destined to one of their
// endpoints; any two sessions touching the same record share that
// endpoint, so the conflict rule orders those too. Record *creation*
// (Collector.Generated) and counter folds happen at commit.

// SessionConfined marks a Router whose session-driven work — Generate,
// Inventory, DirectQueue, PlanReplication, Accept, gossip, observer
// callbacks — reads and writes only its own node's state, the peer
// node it is handed, and immutable run-wide state (config, schedule
// horizon). The parallel engine may run their sessions concurrently
// with sessions on other nodes. Routers that touch shared mutable
// state (a per-run planner, an engine random stream) must not
// implement it; runs including any unconfined router fall back to the
// serial engine.
type SessionConfined interface {
	SessionConfined()
}

// resolveWorkers maps the Config.Workers knob to a worker count:
// 0 or 1 select the serial engine, n > 1 exactly n workers, negative
// one worker per available CPU.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// parallelEligible decides whether a run may use the parallel engine.
// Every exclusion is a correctness gate, not a heuristic: hooks demand
// per-event callbacks, the global control channel is shared mutable
// state touched inside sessions, Bernoulli loss consumes a shared
// transfer counter inside sessions, and an unconfined router may reach
// shared state from ExecuteShard.
func parallelEligible(sc Scenario, net *Network, ids []packet.NodeID) bool {
	if sc.Hooks != nil || sc.Cfg.Mode == ControlGlobal {
		return false
	}
	if net.disrupt != nil && net.disrupt.HasLoss() {
		return false
	}
	for _, id := range ids {
		if _, ok := net.Nodes[id].Router.(SessionConfined); !ok {
			return false
		}
	}
	return true
}

// sessionEvent is a point contact session as a shard event: the session
// body runs in ExecuteShard (it touches only the two endpoints), the
// collector fold and opportunity hook run at commit.
type sessionEvent struct {
	net   *Network
	a, b  *Node
	bytes int64
	at    float64
	s     *Session
}

func (ev *sessionEvent) Execute(e *sim.Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *sessionEvent) ShardKeys() (int64, int64) {
	return int64(ev.a.ID), int64(ev.b.ID)
}

func (ev *sessionEvent) ExecuteShard(e *sim.Engine) {
	ev.s = beginSession(ev.net, ev.a, ev.b, ev.bytes, ev.at)
	if ev.s != nil {
		ev.s.run()
	}
}

func (ev *sessionEvent) CommitShard(e *sim.Engine) {
	if ev.s != nil {
		ev.s.finish()
		ev.s = nil
	}
}

// generateEvent is a packet creation as a shard event: the delivery
// record is registered (and the OnGenerated hook fired) at collection
// time — on the engine goroutine, at the event's exact pop position, so
// a session later in the same batch that delivers the packet finds its
// record — and the router stores the packet in ExecuteShard
// (source-node state only). Registering before earlier batch-mates
// execute is invisible to them: no node holds the packet until this
// event's own ExecuteShard, so nothing can deliver or query it, and
// an extra undelivered record reads like no record. Hooked runs are
// always serial, so the hook never sees a batch.
type generateEvent struct {
	net *Network
	p   *packet.Packet
}

func (ev *generateEvent) Execute(e *sim.Engine) {
	ev.OnCollect(e)
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *generateEvent) ShardKeys() (int64, int64) {
	return int64(ev.p.Src), int64(ev.p.Src)
}

func (ev *generateEvent) OnCollect(e *sim.Engine) {
	ev.net.generated(ev.p, ev.p.Created)
}

func (ev *generateEvent) ExecuteShard(e *sim.Engine) {
	ev.net.Node(ev.p.Src).Router.Generate(ev.p, ev.p.Created)
}

func (ev *generateEvent) CommitShard(e *sim.Engine) {}
