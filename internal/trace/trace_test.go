package trace

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rapid/internal/packet"
)

func TestScheduleSortAndValidate(t *testing.T) {
	s := &Schedule{
		Duration: 100,
		Meetings: []Meeting{
			{A: 1, B: 2, Time: 50, Bytes: 10},
			{A: 0, B: 1, Time: 10, Bytes: 20},
			{A: 2, B: 3, Time: 10, Bytes: 5},
		},
	}
	s.Sort()
	if s.Meetings[0].Time != 10 || s.Meetings[0].A != 0 {
		t.Errorf("sort order wrong: %+v", s.Meetings)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if got := s.TotalBytes(); got != 35 {
		t.Errorf("TotalBytes=%d want 35", got)
	}
	nodes := s.Nodes()
	want := []packet.NodeID{0, 1, 2, 3}
	if len(nodes) != len(want) {
		t.Fatalf("nodes %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes %v want %v", nodes, want)
		}
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"self-meeting", Schedule{Duration: 10, Meetings: []Meeting{{A: 1, B: 1, Time: 1, Bytes: 1}}}},
		{"out of order", Schedule{Duration: 10, Meetings: []Meeting{{A: 0, B: 1, Time: 5, Bytes: 1}, {A: 0, B: 1, Time: 1, Bytes: 1}}}},
		{"negative size", Schedule{Duration: 10, Meetings: []Meeting{{A: 0, B: 1, Time: 1, Bytes: -4}}}},
		{"past horizon", Schedule{Duration: 10, Meetings: []Meeting{{A: 0, B: 1, Time: 11, Bytes: 1}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestValidateBoundsNodeIDs: node IDs index dense per-node state all
// through the runtime, so a negative ID (which used to panic every
// protocol inside the meeting estimator) or one at or past MaxNodeID
// must fail validation of both schedules and contact plans, while the
// largest legal ID passes.
func TestValidateBoundsNodeIDs(t *testing.T) {
	bad := []packet.NodeID{-1, -(1 << 40), MaxNodeID, MaxNodeID + 1}
	for _, id := range bad {
		meet := Schedule{Duration: 10, Meetings: []Meeting{{A: id, B: 0, Time: 1, Bytes: 1}}}
		if err := meet.Validate(); err == nil {
			t.Errorf("meeting naming node %d validated", id)
		}
		contact := Schedule{Duration: 10, Contacts: []Contact{{A: 0, B: id, Start: 1, Duration: 2, RateBps: 8}}}
		if err := contact.Validate(); err == nil {
			t.Errorf("contact naming node %d validated", id)
		}
		plan := &ContactPlan{Duration: 10}
		plan.Add(id, 0, 0, 5, 1)
		if err := plan.Validate(); err == nil {
			t.Errorf("plan contact naming node %d validated", id)
		}
	}
	top := Schedule{Duration: 10, Meetings: []Meeting{{A: 0, B: MaxNodeID - 1, Time: 1, Bytes: 1}}}
	if err := top.Validate(); err != nil {
		t.Errorf("largest legal node ID rejected: %v", err)
	}
	plan := &ContactPlan{Duration: 10}
	plan.Add(MaxNodeID-1, 0, 0, 5, 1)
	if err := plan.Validate(); err != nil {
		t.Errorf("plan with the largest legal node ID rejected: %v", err)
	}
}

func TestMeanOpportunity(t *testing.T) {
	s := &Schedule{Meetings: []Meeting{{Bytes: 10, A: 0, B: 1}, {Bytes: 30, A: 0, B: 1}}}
	m, err := s.MeanOpportunity()
	if err != nil || m != 20 {
		t.Errorf("mean=%v err=%v", m, err)
	}
	empty := &Schedule{}
	if _, err := empty.MeanOpportunity(); err != ErrEmptySchedule {
		t.Errorf("want ErrEmptySchedule, got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := &Schedule{Duration: 5, Meetings: []Meeting{{A: 0, B: 1, Time: 1, Bytes: 2}}}
	c := s.Clone()
	c.Meetings[0].Bytes = 99
	if s.Meetings[0].Bytes != 2 {
		t.Error("clone shares backing array")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := &Schedule{Duration: 1000}
		n := r.Intn(50)
		tm := 0.0
		for i := 0; i < n; i++ {
			tm += r.Float64() * 10
			s.Meetings = append(s.Meetings, Meeting{
				A:     packet.NodeID(r.Intn(10)),
				B:     packet.NodeID(10 + r.Intn(10)),
				Time:  tm,
				Bytes: int64(r.Intn(1 << 20)),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Duration != s.Duration || len(got.Meetings) != len(s.Meetings) {
			return false
		}
		for i := range s.Meetings {
			a, b := s.Meetings[i], got.Meetings[i]
			if a.A != b.A || a.B != b.B || a.Bytes != b.Bytes {
				return false
			}
			if math.Abs(a.Time-b.Time) > 1e-9*math.Max(1, math.Abs(a.Time)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCodecSkipsCommentsAndUnknown(t *testing.T) {
	in := "# a comment\nduration 10\nfuture-directive x y\nmeet 0 1 2.5 100\n\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration != 10 || len(s.Meetings) != 1 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestCodecErrors(t *testing.T) {
	for _, in := range []string{
		"duration\n",
		"duration abc\n",
		"meet 0 1 2.5\n",
		"meet a b c d\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail to parse", in)
		}
	}
}

func TestDieselNetDeterministic(t *testing.T) {
	cfg := DefaultDieselNet()
	d1 := NewDieselNet(cfg)
	d2 := NewDieselNet(cfg)
	s1 := d1.Day(3)
	s2 := d2.Day(3)
	if len(s1.Meetings) != len(s2.Meetings) {
		t.Fatalf("non-deterministic day: %d vs %d meetings", len(s1.Meetings), len(s2.Meetings))
	}
	for i := range s1.Meetings {
		if s1.Meetings[i] != s2.Meetings[i] {
			t.Fatal("non-deterministic meeting content")
		}
	}
	// Different days differ.
	s3 := d1.Day(4)
	if len(s3.Meetings) == len(s1.Meetings) {
		same := true
		for i := range s1.Meetings {
			if s1.Meetings[i] != s3.Meetings[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two different days produced identical schedules")
		}
	}
}

func TestDieselNetCalibration(t *testing.T) {
	// Averages over many days must approximate Table 3:
	// ~19 buses, ~147.5 meetings/day, ~261.4 MB/day.
	d := NewDieselNet(DefaultDieselNet())
	days := 40
	var meetings, buses, bytesTotal float64
	for day := 0; day < days; day++ {
		s := d.Day(day)
		if err := s.Validate(); err != nil {
			t.Fatalf("day %d invalid: %v", day, err)
		}
		meetings += float64(len(s.Meetings))
		buses += float64(len(d.ActiveBuses(day)))
		bytesTotal += float64(s.TotalBytes())
	}
	meetings /= float64(days)
	buses /= float64(days)
	bytesTotal /= float64(days)
	if buses < 16 || buses > 22 {
		t.Errorf("avg buses/day=%v want ~19", buses)
	}
	if meetings < 100 || meetings > 200 {
		t.Errorf("avg meetings/day=%v want ~147", meetings)
	}
	if mb := bytesTotal / 1e6; mb < 150 || mb > 420 {
		t.Errorf("avg MB/day=%v want ~261", mb)
	}
}

func TestDieselNetHeavyTailTransfers(t *testing.T) {
	d := NewDieselNet(DefaultDieselNet())
	var sizes []float64
	for day := 0; day < 20; day++ {
		for _, m := range d.Day(day).Meetings {
			sizes = append(sizes, float64(m.Bytes))
		}
	}
	if len(sizes) < 100 {
		t.Fatalf("too few meetings: %d", len(sizes))
	}
	var mean float64
	maxV := 0.0
	for _, s := range sizes {
		mean += s
		if s > maxV {
			maxV = s
		}
	}
	mean /= float64(len(sizes))
	// Heavy tail: max well above the mean; bandwidth "varies
	// significantly across transfer opportunities" (§6.2.2).
	if maxV < 4*mean {
		t.Errorf("transfer sizes not heavy-tailed: max=%v mean=%v", maxV, mean)
	}
}

func TestDieselNetPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []DieselNetConfig{
		{Fleet: 1, ActivePerDay: 1},
		{Fleet: 10, ActivePerDay: 11},
		{Fleet: 10, ActivePerDay: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			NewDieselNet(cfg)
		}()
	}
}

func TestPerturbPreservesValidity(t *testing.T) {
	d := NewDieselNet(DefaultDieselNet())
	s := d.Day(0)
	p := Perturb(s, DefaultPerturb())
	if err := p.Validate(); err != nil {
		t.Fatalf("perturbed schedule invalid: %v", err)
	}
	if len(p.Meetings) > len(s.Meetings) {
		t.Error("perturbation added meetings")
	}
	if len(p.Meetings) < len(s.Meetings)*8/10 {
		t.Errorf("perturbation dropped too many meetings: %d -> %d", len(s.Meetings), len(p.Meetings))
	}
	if p.TotalBytes() >= s.TotalBytes() {
		t.Error("perturbation should reduce usable bytes")
	}
}

func TestPerturbDeterministic(t *testing.T) {
	d := NewDieselNet(DefaultDieselNet())
	s := d.Day(0)
	p1 := Perturb(s, DefaultPerturb())
	p2 := Perturb(s, DefaultPerturb())
	if len(p1.Meetings) != len(p2.Meetings) {
		t.Fatal("perturbation non-deterministic")
	}
	for i := range p1.Meetings {
		if p1.Meetings[i] != p2.Meetings[i] {
			t.Fatal("perturbation non-deterministic content")
		}
	}
}

// TestPerturbContacts: contacts perturb like meetings — some drop, the
// rest keep a share of their opportunity and stay inside the horizon —
// and draw after every meeting, so the meetings perturb exactly as
// they would with no contacts at all.
func TestPerturbContacts(t *testing.T) {
	cp := &ContactPlan{Duration: 600}
	cp.Add(0, 1, 5, 20, 8<<10)
	cp.AddWindow(1, 2, 0, 40, 30, 1<<10)
	cp.AddWindow(0, 2, 10, 90, 90, 2<<10) // abutting, the last one clipped
	s := cp.Expand()
	s.Contacts = append(s.Contacts, Contact{A: 2, B: 3, Start: 598, Bytes: 4 << 10})
	cfg := DefaultPerturb()
	cfg.JitterSeconds = 30 // push some starts past the horizon
	p := Perturb(s, cfg)
	if err := p.Validate(); err != nil {
		t.Fatalf("perturbed schedule invalid: %v", err)
	}
	if !slices.Equal(p.Meetings, Perturb(&Schedule{Meetings: s.Meetings, Duration: s.Duration}, cfg).Meetings) {
		t.Error("contacts changed how the meetings perturb")
	}
	if len(p.Contacts) == 0 || len(p.Contacts) > len(s.Contacts) {
		t.Fatalf("perturbation kept %d of %d contacts", len(p.Contacts), len(s.Contacts))
	}
	windows := 0
	for _, c := range p.Contacts {
		if c.Windowed() {
			windows++
			if c.RateBps >= 2<<10 || c.RateBps < cfg.MinTransferEfficiency*(1<<10) {
				t.Errorf("window rate %v is not a drawn share of its nominal rate", c.RateBps)
			}
		} else if c.Bytes >= 4<<10 {
			t.Errorf("point contact kept %d of its %d bytes", c.Bytes, 4<<10)
		}
	}
	if windows == 0 {
		t.Error("perturbation dropped every window")
	}
}

func TestDieselNetNeverMeetPairsExist(t *testing.T) {
	// The h-hop transitive estimator (§4.1.2) exists because "some
	// nodes in the trace never meet directly". Check the generator
	// reproduces that property within a day.
	d := NewDieselNet(DefaultDieselNet())
	s := d.Day(0)
	active := d.ActiveBuses(0)
	met := map[[2]packet.NodeID]bool{}
	for _, m := range s.Meetings {
		a, b := m.A, m.B
		if a > b {
			a, b = b, a
		}
		met[[2]packet.NodeID{a, b}] = true
	}
	pairs := len(active) * (len(active) - 1) / 2
	if len(met) >= pairs {
		t.Errorf("every pair met directly (%d/%d); trace lacks never-meet structure", len(met), pairs)
	}
}
