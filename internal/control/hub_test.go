package control_test

import (
	"math/rand"
	"testing"

	"rapid/internal/control"
	"rapid/internal/core"
	"rapid/internal/mobility"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// TestHubAfterGlobalRun: after a RAPID run over the instant global
// channel neither the hub nor any node keeps a changelog: the hub
// gossips with no one, and the nodes keep their acks and records in
// the hub. (TestNoSelfHeldRecordsInBand checks the hub's records.)
func TestHubAfterGlobalRun(t *testing.T) {
	sched := mobility.Exponential{Config: mobility.Config{
		Nodes: 8, Duration: 600, MeanMeeting: 60, TransferBytes: 20 << 10,
	}}.Schedule(rand.New(rand.NewSource(3)))
	w := packet.Generate(packet.GenConfig{
		Nodes: sched.Nodes(), PacketsPerHourPerDest: 1, LoadWindow: 50,
		Duration: 400, PacketSize: 1 << 10, FirstID: 1,
	}, rand.New(rand.NewSource(4)))
	var net *routing.Network
	c := routing.Run(routing.Scenario{
		Schedule: sched, Workload: w, Factory: core.New(core.AvgDelay),
		Cfg: routing.Config{
			BufferBytes: 100 << 10, Mode: routing.ControlGlobal,
			MetaFraction: -1, DefaultTransferBytes: 20 << 10,
		},
		Seed:  5,
		Hooks: &routing.Hooks{AfterEvent: func(n *routing.Network) { net = n }},
	})
	hub := net.Global
	acked := 0
	for _, r := range c.Records() {
		if hub.IsAcked(r.P.ID) {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("vacuous run: no packet acked")
	}
	states := []*control.State{hub}
	for _, id := range sched.Nodes() {
		states = append(states, net.Node(id).Ctl)
	}
	for i, s := range states {
		if a, ids, m := control.Changelogs(s); a+ids+m != 0 {
			t.Errorf("state %d (0 = hub) keeps changelogs: ackLog %d, ackIDs %d, metaLog %d", i, a, ids, m)
		}
	}
}
