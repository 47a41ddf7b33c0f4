package metrics

import (
	"math"
	"testing"

	"rapid/internal/packet"
)

func pkt(id packet.ID, src, dst packet.NodeID, created, deadline float64) *packet.Packet {
	return &packet.Packet{ID: id, Src: src, Dst: dst, Size: 1024, Created: created, Deadline: deadline}
}

func TestBasicDeliveryAccounting(t *testing.T) {
	c := New()
	p1 := pkt(1, 0, 1, 0, 0)
	p2 := pkt(2, 0, 1, 10, 0)
	c.Generated(p1)
	c.Generated(p2)
	c.Delivered(1, 50, 2)
	s := c.Summarize(100)
	if s.Generated != 2 || s.Delivered != 1 {
		t.Fatalf("counts %+v", s)
	}
	if s.DeliveryRate != 0.5 {
		t.Errorf("rate %v", s.DeliveryRate)
	}
	if s.AvgDelay != 50 {
		t.Errorf("avg delay %v want 50", s.AvgDelay)
	}
	// AvgDelayAll: (50 + (100-10))/2 = 70.
	if s.AvgDelayAll != 70 {
		t.Errorf("avg delay all %v want 70", s.AvgDelayAll)
	}
	if s.MaxDelay != 50 {
		t.Errorf("max delay %v want 50", s.MaxDelay)
	}
	if s.MaxDelayAll != 90 {
		t.Errorf("max delay all %v want 90", s.MaxDelayAll)
	}
}

func TestDuplicateDeliveryIgnored(t *testing.T) {
	c := New()
	c.Generated(pkt(1, 0, 1, 0, 0))
	c.Delivered(1, 30, 1)
	c.Delivered(1, 60, 3) // duplicate replica arriving later
	s := c.Summarize(100)
	if s.AvgDelay != 30 {
		t.Errorf("duplicate delivery changed delay: %v", s.AvgDelay)
	}
	if !c.IsDelivered(1) {
		t.Error("IsDelivered false")
	}
	// Unknown packet delivery is ignored.
	c.Delivered(99, 10, 1)
	if c.IsDelivered(99) {
		t.Error("unknown packet marked delivered")
	}
}

func TestGeneratedTwicePanics(t *testing.T) {
	c := New()
	c.Generated(pkt(1, 0, 1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Generated(pkt(1, 0, 1, 0, 0))
}

func TestDeadlineAccounting(t *testing.T) {
	c := New()
	c.Generated(pkt(1, 0, 1, 0, 20)) // delivered in time
	c.Generated(pkt(2, 0, 1, 0, 20)) // delivered late
	c.Generated(pkt(3, 0, 1, 0, 20)) // never delivered
	c.Generated(pkt(4, 0, 1, 0, 0))  // no deadline: excluded
	c.Delivered(1, 15, 1)
	c.Delivered(2, 30, 1)
	c.Delivered(4, 5, 1)
	s := c.Summarize(100)
	if math.Abs(s.WithinDeadline-1.0/3.0) > 1e-12 {
		t.Errorf("within deadline %v want 1/3", s.WithinDeadline)
	}
}

func TestChannelAccounting(t *testing.T) {
	c := New()
	c.Meetings = 2
	c.OpportunityBytes = 1000
	c.DataBytes = 300
	c.MetaBytes = 100
	s := c.Summarize(10)
	if s.Utilization != 0.4 {
		t.Errorf("utilization %v want 0.4", s.Utilization)
	}
	if s.MetaOverBandwidth != 0.1 {
		t.Errorf("meta/bw %v", s.MetaOverBandwidth)
	}
	if math.Abs(s.MetaOverData-1.0/3.0) > 1e-12 {
		t.Errorf("meta/data %v", s.MetaOverData)
	}
}

func TestCohortFairness(t *testing.T) {
	c := New()
	// Cohort 1: equal delays -> J = 1.
	for i := packet.ID(1); i <= 3; i++ {
		p := pkt(i, 0, 1, 0, 0)
		p.Cohort = 1
		c.Generated(p)
		c.Delivered(i, 10, 1)
	}
	// Cohort 2: one delivered at 10, one stuck until horizon 100.
	p4 := pkt(4, 0, 1, 0, 0)
	p4.Cohort = 2
	c.Generated(p4)
	c.Delivered(4, 10, 1)
	p5 := pkt(5, 0, 1, 0, 0)
	p5.Cohort = 2
	c.Generated(p5)
	// Untagged packet is excluded.
	c.Generated(pkt(6, 0, 1, 0, 0))

	f := c.CohortFairness(100)
	if len(f) != 2 {
		t.Fatalf("fairness %v", f)
	}
	// Sorted ascending: unfair cohort first.
	if f[1] != 1 {
		t.Errorf("equal cohort J=%v want 1", f[1])
	}
	// Cohort 2: delays 10,100 -> J=(110)^2/(2*10100)≈0.599.
	want := 110.0 * 110.0 / (2 * (100 + 10000))
	if math.Abs(f[0]-want) > 1e-9 {
		t.Errorf("unfair cohort J=%v want %v", f[0], want)
	}
}

func TestEmptySummary(t *testing.T) {
	s := New().Summarize(100)
	if s.Generated != 0 || s.DeliveryRate != 0 || s.AvgDelay != 0 || s.Utilization != 0 {
		t.Errorf("empty summary %+v", s)
	}
}
