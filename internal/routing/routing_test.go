package routing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rapid/internal/mobility"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/epidemic"
	"rapid/internal/trace"
)

// twoNodeScenario: node 0 meets node 1 once; one packet 0→1.
func twoNodeScenario(oppBytes int64, pktSize int64) routing.Scenario {
	return routing.Scenario{
		Schedule: &trace.Schedule{
			Duration: 100,
			Meetings: []trace.Meeting{{A: 0, B: 1, Time: 50, Bytes: oppBytes}},
		},
		Workload: packet.Workload{
			{ID: 1, Src: 0, Dst: 1, Size: pktSize, Created: 10},
		},
		Factory: epidemic.New(),
		Cfg:     routing.Config{Mode: routing.ControlInBand, MetaFraction: -1},
		Seed:    1,
	}
}

func TestDirectDeliveryAtMeeting(t *testing.T) {
	c := routing.Run(twoNodeScenario(1<<20, 1024))
	s := c.Summarize(100)
	if s.Delivered != 1 {
		t.Fatalf("delivered=%d want 1", s.Delivered)
	}
	if s.AvgDelay != 40 { // created at 10, met at 50
		t.Errorf("delay=%v want 40", s.AvgDelay)
	}
	if c.DirectDeliveries != 1 {
		t.Errorf("direct deliveries=%d", c.DirectDeliveries)
	}
}

func TestNoDeliveryWithoutMeeting(t *testing.T) {
	sc := twoNodeScenario(1<<20, 1024)
	sc.Workload[0].Dst = 2 // destination never meets anyone
	sc.Workload = append(sc.Workload, &packet.Packet{ID: 2, Src: 2, Dst: 0, Size: 10, Created: 5})
	c := routing.Run(sc)
	if got := c.Summarize(100).Delivered; got != 0 {
		t.Errorf("delivered=%d want 0", got)
	}
}

func TestBudgetRespected(t *testing.T) {
	// Opportunity smaller than the packet: nothing can move.
	c := routing.Run(twoNodeScenario(512, 1024))
	s := c.Summarize(100)
	if s.Delivered != 0 {
		t.Fatalf("oversized packet delivered through a too-small contact")
	}
	if s.DataBytes != 0 {
		t.Errorf("data bytes=%d want 0", s.DataBytes)
	}
}

func TestFeasibilityInvariant(t *testing.T) {
	// Across a dense multi-node run, control+data bytes never exceed
	// offered contact capacity (§3.1 feasible schedule).
	model := mobility.Exponential{Config: mobility.Config{
		Nodes: 10, Duration: 600, MeanMeeting: 30, TransferBytes: 4 << 10,
	}}
	sched := model.Schedule(rand.New(rand.NewSource(7)))
	w := packet.Generate(packet.GenConfig{
		Nodes:                 sched.Nodes(),
		PacketsPerHourPerDest: 5,
		LoadWindow:            100,
		Duration:              600,
		PacketSize:            1024,
		FirstID:               1,
	}, rand.New(rand.NewSource(8)))
	c := routing.Run(routing.Scenario{
		Schedule: sched,
		Workload: w,
		Factory:  epidemic.New(),
		Cfg:      routing.Config{BufferBytes: 64 << 10, Mode: routing.ControlInBand, MetaFraction: -1},
		Seed:     3,
	})
	s := c.Summarize(600)
	if s.DataBytes+s.MetaBytes > s.OpportunityBytes {
		t.Errorf("feasibility violated: data %d + meta %d > opportunity %d",
			s.DataBytes, s.MetaBytes, s.OpportunityBytes)
	}
	if s.Delivered == 0 {
		t.Error("epidemic run delivered nothing")
	}
	if s.Meetings != len(sched.Meetings) {
		t.Errorf("meetings %d want %d", s.Meetings, len(sched.Meetings))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		model := mobility.Exponential{Config: mobility.Config{
			Nodes: 8, Duration: 500, MeanMeeting: 40, TransferBytes: 8 << 10,
		}}
		sched := model.Schedule(rand.New(rand.NewSource(11)))
		w := packet.Generate(packet.GenConfig{
			Nodes: sched.Nodes(), PacketsPerHourPerDest: 4, LoadWindow: 100,
			Duration: 500, PacketSize: 1024, FirstID: 1,
		}, rand.New(rand.NewSource(12)))
		c := routing.Run(routing.Scenario{
			Schedule: sched, Workload: w, Factory: epidemic.New(),
			Cfg:  routing.Config{BufferBytes: 32 << 10, Mode: routing.ControlInBand, MetaFraction: -1},
			Seed: 5,
		})
		s := c.Summarize(500)
		return s.AvgDelay + float64(s.Delivered)*1000 + float64(s.DataBytes)
	}
	if run() != run() {
		t.Error("simulation is not deterministic for a fixed seed")
	}
}

func TestEpidemicSpreadsThroughRelay(t *testing.T) {
	// 0 meets 1 at t=10; 1 meets 2 at t=20. Packet 0→2 must arrive via
	// relay node 1.
	sc := routing.Scenario{
		Schedule: &trace.Schedule{
			Duration: 100,
			Meetings: []trace.Meeting{
				{A: 0, B: 1, Time: 10, Bytes: 1 << 20},
				{A: 1, B: 2, Time: 20, Bytes: 1 << 20},
			},
		},
		Workload: packet.Workload{{ID: 1, Src: 0, Dst: 2, Size: 1024, Created: 0}},
		Factory:  epidemic.New(),
		Cfg:      routing.Config{Mode: routing.ControlInBand, MetaFraction: -1},
		Seed:     1,
	}
	c := routing.Run(sc)
	s := c.Summarize(100)
	if s.Delivered != 1 {
		t.Fatalf("relay delivery failed")
	}
	if s.AvgDelay != 20 {
		t.Errorf("delay %v want 20", s.AvgDelay)
	}
	recs := c.Records()
	if recs[0].Hops != 2 {
		t.Errorf("hops=%d want 2", recs[0].Hops)
	}
}

func TestAckPropagationPurgesReplicas(t *testing.T) {
	// 0 replicates to 1; 0 later delivers directly to 2; when 1 meets 0
	// again it learns the ack and purges; when 1 then meets 2 nothing
	// is transferred.
	sc := routing.Scenario{
		Schedule: &trace.Schedule{
			Duration: 100,
			Meetings: []trace.Meeting{
				{A: 0, B: 1, Time: 10, Bytes: 1 << 20}, // replicate 0→1
				{A: 0, B: 2, Time: 20, Bytes: 1 << 20}, // deliver
				{A: 0, B: 1, Time: 30, Bytes: 1 << 20}, // ack reaches 1
				{A: 1, B: 2, Time: 40, Bytes: 1 << 20}, // no re-delivery
			},
		},
		Workload: packet.Workload{{ID: 1, Src: 0, Dst: 2, Size: 1024, Created: 0}},
		Factory:  epidemic.New(),
		Cfg:      routing.Config{Mode: routing.ControlInBand, MetaFraction: -1},
		Seed:     1,
	}
	c := routing.Run(sc)
	s := c.Summarize(100)
	if s.Delivered != 1 || s.AvgDelay != 20 {
		t.Fatalf("summary %+v", s)
	}
	// Data moved: one replication (t=10) + one delivery (t=20) only.
	if s.DataBytes != 2048 {
		t.Errorf("data bytes %d want 2048 (ack purge failed?)", s.DataBytes)
	}
}

// TestPacketIDBoundEnforcedAtGeneration: a packet whose ID lies
// outside [0, packet.MaxID) panics with the bound's message when it is
// generated, whether it arrives in a materialized workload or a
// streamed source. MaxID-1 is accepted (its destination never meets
// anyone, so no ack set grows to it).
func TestPacketIDBoundEnforcedAtGeneration(t *testing.T) {
	run := func(id packet.ID, streamed bool) (msg string) {
		sc := twoNodeScenario(1<<20, 1024)
		sc.Workload[0].ID = id
		sc.Workload[0].Dst = 2
		if streamed {
			sc.Source, sc.Workload = packet.NewSliceSource(sc.Workload), nil
		}
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		routing.Run(sc)
		return ""
	}
	for _, streamed := range []bool{false, true} {
		for _, id := range []packet.ID{-1, -1 << 40, packet.MaxID, packet.MaxID + 1} {
			want := fmt.Sprintf("routing: packet %d outside [0,%d)", id, packet.MaxID)
			if msg := run(id, streamed); msg != want {
				t.Errorf("streamed=%v: panic %q, want %q", streamed, msg, want)
			}
		}
		if msg := run(packet.MaxID-1, streamed); msg != "" {
			t.Errorf("streamed=%v: packet MaxID-1 rejected: %s", streamed, msg)
		}
	}
}

func TestGlobalModeZeroMetaBytes(t *testing.T) {
	sc := twoNodeScenario(1<<20, 1024)
	sc.Cfg.Mode = routing.ControlGlobal
	c := routing.Run(sc)
	s := c.Summarize(100)
	if s.MetaBytes != 0 {
		t.Errorf("global mode metadata cost %d bytes", s.MetaBytes)
	}
	if s.Delivered != 1 {
		t.Error("global mode broke delivery")
	}
}

func TestMetaFractionZeroDisablesMetadata(t *testing.T) {
	sc := twoNodeScenario(1<<20, 1024)
	sc.Cfg.MetaFraction = 0
	c := routing.Run(sc)
	s := c.Summarize(100)
	if s.MetaBytes != 0 {
		t.Errorf("metadata sent despite fraction 0: %d", s.MetaBytes)
	}
	if s.Delivered != 1 {
		t.Error("direct delivery must still work without metadata")
	}
}

func TestControlModeString(t *testing.T) {
	if routing.ControlInBand.String() != "in-band" ||
		routing.ControlGlobal.String() != "global" ||
		routing.ControlNone.String() != "none" {
		t.Error("ControlMode strings changed")
	}
	if routing.ControlMode(42).String() == "" {
		t.Error("unknown mode must stringify")
	}
}

// TestPerNodeBufferBytes: BufferBytesFor assigns heterogeneous
// capacities, overriding the uniform BufferBytes.
func TestPerNodeBufferBytes(t *testing.T) {
	cfg := routing.Config{
		BufferBytes: 999, // must be ignored when BufferBytesFor is set
		BufferBytesFor: func(id packet.NodeID) int64 {
			if id%2 == 0 {
				return 100
			}
			return 2000
		},
	}
	net := routing.NewNetwork(nil, []packet.NodeID{0, 1, 2, 3}, epidemic.New(), cfg)
	for _, id := range []packet.NodeID{0, 1, 2, 3} {
		want := int64(2000)
		if id%2 == 0 {
			want = 100
		}
		if got := net.Node(id).Store.Capacity(); got != want {
			t.Errorf("node %d capacity = %d, want %d", id, got, want)
		}
	}
}
