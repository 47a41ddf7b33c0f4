// Package shardcommit exercises the shardcommit analyzer against
// structural stand-ins for rapid's sim and metrics packages (the
// analyzer matches by package name, so these fixtures walk the same
// paths as the real types).
package shardcommit

import (
	"metrics"
	"sim"
)

type net struct {
	c *metrics.Collector
}

func (n *net) scratch() {}

type badEvent struct {
	n  *net
	at float64
}

func (e *badEvent) ShardKeys() (int64, int64) { return 0, 1 }

func (e *badEvent) ExecuteShard(eng *sim.Engine) {
	e.n.c.Delivered(7)          // want `\(badEvent\) ExecuteShard touches metrics\.Collector \(\.Delivered\)`
	e.n.c.Generated++           // want `touches metrics\.Collector \(\.Generated\)`
	eng.ScheduleFunc(e.at, nil) // want `uses sim\.Engine\.ScheduleFunc inside the execute phase`
	_ = eng.Now()               // want `uses sim\.Engine\.Now inside the execute phase`
	_ = eng.Rand("xfer")        // want `uses sim\.Engine\.Rand inside the execute phase`
	e.helper()
}

func (e *badEvent) helper() {
	if e.n.c.IsDelivered(7) { // want `ExecuteShard → helper touches metrics\.Collector \(\.IsDelivered\)`
		return
	}
}

func (e *badEvent) CommitShard(eng *sim.Engine) {
	e.n.c.Delivered(7) // commit phase: collector effects belong here
	eng.ScheduleFunc(e.at+1, nil)
}

type okEvent struct{ n *net }

func (e *okEvent) ShardKeys() (int64, int64)    { return 2, 2 }
func (e *okEvent) ExecuteShard(eng *sim.Engine) { e.n.scratch() }
func (e *okEvent) CommitShard(eng *sim.Engine)  { e.n.c.Generated++ }

type allowEvent struct{ n *net }

func (e *allowEvent) ShardKeys() (int64, int64) { return 3, 3 }

func (e *allowEvent) ExecuteShard(eng *sim.Engine) {
	//rapidlint:allow shardcommit — fixture: per-packet record read ordered by the shard conflict rule
	_ = e.n.c.IsDelivered(9)
}

func (e *allowEvent) CommitShard(eng *sim.Engine) {}
