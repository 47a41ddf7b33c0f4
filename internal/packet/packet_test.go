package packet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPacketAgeAndDeadline(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dst: 1, Size: 1024, Created: 100, Deadline: 160}
	if got := p.Age(150); got != 50 {
		t.Errorf("Age=%v want 50", got)
	}
}

func TestWorkloadSortStable(t *testing.T) {
	w := Workload{
		{ID: 3, Created: 5},
		{ID: 1, Created: 5},
		{ID: 2, Created: 1},
	}
	w.Sort()
	if w[0].ID != 2 || w[1].ID != 1 || w[2].ID != 3 {
		t.Errorf("sort order: %v %v %v", w[0].ID, w[1].ID, w[2].ID)
	}
}

func TestGenerateRateMatchesLoad(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	nodes := make([]NodeID, 10)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	cfg := GenConfig{
		Nodes:                 nodes,
		PacketsPerHourPerDest: 4,
		LoadWindow:            3600,
		Duration:              10 * 3600,
		PacketSize:            1024,
		FirstID:               1,
	}
	w := Generate(cfg, r)
	// Expected count: 4 pkts/h per ordered pair * 90 pairs * 10 h = 3600.
	want := 3600.0
	got := float64(len(w))
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("generated %v packets want ~%v", got, want)
	}
	// Sorted by time; all within horizon; no self-addressed packets.
	for i, p := range w {
		if i > 0 && p.Created < w[i-1].Created {
			t.Fatal("workload not time sorted")
		}
		if p.Created < 0 || p.Created >= cfg.Duration {
			t.Fatalf("creation time %v outside horizon", p.Created)
		}
		if p.Src == p.Dst {
			t.Fatal("self-addressed packet")
		}
		if p.Size != 1024 {
			t.Fatalf("size %d", p.Size)
		}
		if p.Deadline != 0 {
			t.Fatal("unexpected deadline")
		}
	}
}

func TestGenerateUniqueIDs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := GenConfig{
			Nodes:                 []NodeID{0, 1, 2, 3},
			PacketsPerHourPerDest: 10,
			LoadWindow:            100,
			Duration:              500,
			PacketSize:            1,
			FirstID:               100,
		}
		w := Generate(cfg, r)
		seen := make(map[ID]bool, len(w))
		for _, p := range w {
			if seen[p.ID] || p.ID < 100 {
				return false
			}
			seen[p.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeadlineStamping(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	cfg := GenConfig{
		Nodes:                 []NodeID{0, 1},
		PacketsPerHourPerDest: 50,
		LoadWindow:            50,
		Duration:              100,
		PacketSize:            1024,
		Deadline:              20,
	}
	w := Generate(cfg, r)
	if len(w) == 0 {
		t.Fatal("no packets generated")
	}
	for _, p := range w {
		if p.Deadline != p.Created+20 {
			t.Fatalf("deadline %v want created+20=%v", p.Deadline, p.Created+20)
		}
	}
}

func TestGenerateDegenerateConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if w := Generate(GenConfig{}, r); len(w) != 0 {
		t.Error("zero config must generate nothing")
	}
	cfg := GenConfig{Nodes: []NodeID{0}, PacketsPerHourPerDest: 5, LoadWindow: 10, Duration: 10, PacketSize: 1}
	if w := Generate(cfg, r); len(w) != 0 {
		t.Error("single node cannot generate traffic")
	}
}

func TestGenerateParallel(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	nodes := []NodeID{0, 1, 2, 3, 4}
	w := GenerateParallel(nodes, 3, 20, 100, 1024, r)
	if len(w) != 60 {
		t.Fatalf("got %d packets want 60", len(w))
	}
	byCohort := map[int][]*Packet{}
	for _, p := range w {
		if p.Cohort == 0 {
			t.Fatal("cohort not stamped")
		}
		byCohort[p.Cohort] = append(byCohort[p.Cohort], p)
	}
	if len(byCohort) != 3 {
		t.Fatalf("cohorts %d want 3", len(byCohort))
	}
	for c, ps := range byCohort {
		if len(ps) != 20 {
			t.Errorf("cohort %d size %d want 20", c, len(ps))
		}
		for _, p := range ps {
			if p.Created != ps[0].Created {
				t.Errorf("cohort %d not simultaneous", c)
			}
			if p.Src == p.Dst {
				t.Error("self-addressed parallel packet")
			}
		}
	}
	if w := GenerateParallel([]NodeID{0}, 2, 2, 1, 1, r); len(w) != 0 {
		t.Error("need >=2 nodes")
	}
}

// TestGenerateOnOffDeterministicAndBursty: the on-off generator is
// deterministic in its seed, produces less traffic than always-on
// Poisson at the same instantaneous rate, and degenerates to Generate
// when offMean <= 0.
func TestGenerateOnOffDeterministicAndBursty(t *testing.T) {
	cfg := GenConfig{
		Nodes:                 []NodeID{0, 1, 2, 3},
		PacketsPerHourPerDest: 20,
		LoadWindow:            50,
		Duration:              600,
		PacketSize:            1024,
		Deadline:              20,
		FirstID:               1,
	}
	a := GenerateOnOff(cfg, 30, 120, rand.New(rand.NewSource(5)))
	b := GenerateOnOff(cfg, 30, 120, rand.New(rand.NewSource(5)))
	if len(a) == 0 {
		t.Fatal("on-off generated nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("packet %d differs between identical draws", i)
		}
	}
	for _, p := range a {
		if p.Created < 0 || p.Created >= cfg.Duration {
			t.Errorf("packet created at %v outside [0,%v)", p.Created, cfg.Duration)
		}
		if p.Deadline != p.Created+cfg.Deadline {
			t.Errorf("deadline not stamped: %+v", p)
		}
	}
	full := Generate(cfg, rand.New(rand.NewSource(5)))
	if len(a) >= len(full) {
		t.Errorf("bursty %d packets >= always-on %d", len(a), len(full))
	}
	degenerate := GenerateOnOff(cfg, 30, 0, rand.New(rand.NewSource(5)))
	if len(degenerate) != len(full) {
		t.Fatalf("offMean=0 must equal Generate: %d vs %d", len(degenerate), len(full))
	}
	for i := range degenerate {
		if *degenerate[i] != *full[i] {
			t.Fatalf("degenerate packet %d differs from Generate", i)
		}
	}
}

// TestGenerateOnOffIDsSorted: IDs are unique and the workload is
// time-sorted like every other generator's output.
func TestGenerateOnOffIDsSorted(t *testing.T) {
	cfg := GenConfig{
		Nodes: []NodeID{0, 1, 2}, PacketsPerHourPerDest: 30,
		LoadWindow: 50, Duration: 500, PacketSize: 512, FirstID: 10,
	}
	w := GenerateOnOff(cfg, 20, 60, rand.New(rand.NewSource(2)))
	seen := map[ID]bool{}
	prev := -1.0
	for _, p := range w {
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.ID < 10 {
			t.Fatalf("ID %d below FirstID", p.ID)
		}
		if p.Created < prev {
			t.Fatal("workload not time-sorted")
		}
		prev = p.Created
	}
}
