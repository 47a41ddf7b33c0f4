package packet

import (
	"math/rand"
	"testing"
)

func sourceCfg() GenConfig {
	return GenConfig{
		Nodes:                 []NodeID{0, 1, 2, 3},
		PacketsPerHourPerDest: 2,
		LoadWindow:            50,
		Duration:              400,
		PacketSize:            1 << 10,
		Deadline:              60,
		FirstID:               1,
	}
}

func TestPoissonSourceDeterministic(t *testing.T) {
	a := NewPoissonSource(sourceCfg(), 42).Drain()
	b := NewPoissonSource(sourceCfg(), 42).Drain()
	if len(a) == 0 {
		t.Fatal("source produced no packets")
	}
	if len(a) != len(b) {
		t.Fatalf("two drains differ in length: %d != %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("packet %d differs across identical sources: %+v != %+v", i, *a[i], *b[i])
		}
	}
	c := NewPoissonSource(sourceCfg(), 43).Drain()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Created != c[i].Created {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical arrival sequence")
	}
}

func TestPoissonSourceOrderingAndBounds(t *testing.T) {
	cfg := sourceCfg()
	w := NewPoissonSource(cfg, 7).Drain()
	if len(w) == 0 {
		t.Fatal("source produced no packets")
	}
	for i, p := range w {
		if p.ID != cfg.FirstID+ID(i) {
			t.Fatalf("packet %d has ID %d, want emission order from %d", i, p.ID, cfg.FirstID)
		}
		if i > 0 && p.Created < w[i-1].Created {
			t.Fatalf("Created times decrease at %d: %v after %v", i, p.Created, w[i-1].Created)
		}
		if p.Created < 0 || p.Created >= cfg.Duration {
			t.Fatalf("packet %d created at %v outside [0, %v)", i, p.Created, cfg.Duration)
		}
		if p.Src == p.Dst {
			t.Fatalf("packet %d is a self-send to %d", i, p.Src)
		}
		if p.Deadline != p.Created+cfg.Deadline {
			t.Fatalf("packet %d deadline %v, want Created+%v", i, p.Deadline, cfg.Deadline)
		}
		if p.Size != cfg.PacketSize {
			t.Fatalf("packet %d size %d, want %d", i, p.Size, cfg.PacketSize)
		}
	}
}

func TestPoissonSourceRate(t *testing.T) {
	// Long horizon, loose bound: the realized count should sit near
	// rate × duration × pairs.
	cfg := sourceCfg()
	cfg.Duration = 20000
	cfg.Deadline = 0
	w := NewPoissonSource(cfg, 3).Drain()
	rate := cfg.PacketsPerHourPerDest / cfg.LoadWindow
	expect := rate * cfg.Duration * float64(len(cfg.Nodes)*(len(cfg.Nodes)-1))
	if got := float64(len(w)); got < 0.8*expect || got > 1.2*expect {
		t.Errorf("drained %v packets, expected about %v", got, expect)
	}
}

func TestPoissonSourceEndpoints(t *testing.T) {
	cfg := sourceCfg()
	cfg.Nodes = []NodeID{5, 2, 9, 2}
	s := NewPoissonSource(cfg, 1)
	got := s.Endpoints()
	want := []NodeID{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Endpoints() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Endpoints() = %v, want %v", got, want)
		}
	}
}

func TestPoissonSourceDegenerate(t *testing.T) {
	for _, cfg := range []GenConfig{
		{},
		{Nodes: []NodeID{0}, PacketsPerHourPerDest: 1, LoadWindow: 50, Duration: 100},
		{Nodes: []NodeID{0, 1}, LoadWindow: 50, Duration: 100},
		{Nodes: []NodeID{0, 1}, PacketsPerHourPerDest: 1, LoadWindow: 50},
	} {
		if w := NewPoissonSource(cfg, 1).Drain(); len(w) != 0 {
			t.Errorf("degenerate config %+v produced %d packets", cfg, len(w))
		}
	}
}

func TestSliceSourceRoundtrip(t *testing.T) {
	w := Generate(sourceCfg(), rand.New(rand.NewSource(1)))
	s := NewSliceSource(w)
	eps := s.Endpoints()
	for i := 1; i < len(eps); i++ {
		if eps[i] <= eps[i-1] {
			t.Fatalf("Endpoints not strictly sorted: %v", eps)
		}
	}
	var n int
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		if p != w[n] {
			t.Fatalf("packet %d: slice source returned a different pointer", n)
		}
		n++
	}
	if n != len(w) {
		t.Fatalf("slice source yielded %d of %d packets", n, len(w))
	}
}

// TestPoissonSourceNextAllocs: once constructed, the source allocates
// only the packet each Next returns — its heap moves arrivals by value.
func TestPoissonSourceNextAllocs(t *testing.T) {
	cfg := sourceCfg()
	cfg.Duration = 1e6
	src := NewPoissonSource(cfg, 42)
	yielded := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := src.Next(); ok {
			yielded++
		}
	})
	if yielded < 2001 {
		t.Fatalf("source yielded only %d packets; the measurement needs a longer run", yielded)
	}
	if allocs != 1 {
		t.Errorf("Next allocates %v per packet, want 1 (the packet itself)", allocs)
	}
}
