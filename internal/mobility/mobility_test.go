package mobility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/packet"
)

func defaultCfg() Config {
	return Config{
		Nodes:         20,
		Duration:      900,
		MeanMeeting:   60,
		TransferBytes: 100 << 10,
	}
}

func TestExponentialScheduleValid(t *testing.T) {
	m := Exponential{defaultCfg()}
	s := m.Schedule(rand.New(rand.NewSource(1)))
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if len(s.Meetings) == 0 {
		t.Fatal("no meetings generated")
	}
	for _, mt := range s.Meetings {
		if mt.Bytes != 100<<10 {
			t.Fatalf("unexpected opportunity size %d", mt.Bytes)
		}
	}
}

func TestExponentialMeetingCount(t *testing.T) {
	// Expected meetings per pair = Duration/MeanMeeting = 15.
	// 190 pairs -> 2850 total; allow 10% sampling slack.
	m := Exponential{defaultCfg()}
	s := m.Schedule(rand.New(rand.NewSource(2)))
	want := 900.0 / 60.0 * 190.0
	got := float64(len(s.Meetings))
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("meetings=%v want ~%v", got, want)
	}
}

func TestExponentialPairRatesUniform(t *testing.T) {
	m := Exponential{defaultCfg()}
	counts := map[[2]packet.NodeID]int{}
	for seed := int64(0); seed < 10; seed++ {
		s := m.Schedule(rand.New(rand.NewSource(seed)))
		for _, mt := range s.Meetings {
			a, b := mt.A, mt.B
			if a > b {
				a, b = b, a
			}
			counts[[2]packet.NodeID{a, b}]++
		}
	}
	var mn, mx = math.Inf(1), math.Inf(-1)
	for _, c := range counts {
		f := float64(c)
		mn = math.Min(mn, f)
		mx = math.Max(mx, f)
	}
	// Uniform rates: min and max pair counts within a reasonable
	// Poisson band of the mean 150.
	if mx/mn > 2.2 {
		t.Errorf("pair meeting counts too dispersed for uniform model: min=%v max=%v", mn, mx)
	}
}

func TestPowerLawSkewsRates(t *testing.T) {
	cfg := defaultCfg()
	pl := PowerLaw{Config: cfg, Alpha: 1}
	counts := map[[2]packet.NodeID]int{}
	for seed := int64(0); seed < 10; seed++ {
		s := pl.Schedule(rand.New(rand.NewSource(seed)))
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		for _, mt := range s.Meetings {
			a, b := mt.A, mt.B
			if a > b {
				a, b = b, a
			}
			counts[[2]packet.NodeID{a, b}]++
		}
	}
	var mn, mx = math.Inf(1), math.Inf(-1)
	for _, c := range counts {
		f := float64(c)
		mn = math.Min(mn, f)
		mx = math.Max(mx, f)
	}
	if mn == 0 {
		mn = 1
	}
	// Power-law rates must be far more dispersed than uniform ones.
	if mx/mn < 4 {
		t.Errorf("power-law pair counts not skewed: min=%v max=%v", mn, mx)
	}
}

func TestPowerLawPreservesMeanRate(t *testing.T) {
	// Normalization keeps total meeting volume comparable to the
	// exponential model (same Config).
	cfg := defaultCfg()
	exp := Exponential{cfg}
	pl := PowerLaw{Config: cfg, Alpha: 1}
	var expTotal, plTotal int
	for seed := int64(0); seed < 8; seed++ {
		expTotal += len(exp.Schedule(rand.New(rand.NewSource(seed))).Meetings)
		plTotal += len(pl.Schedule(rand.New(rand.NewSource(seed + 100))).Meetings)
	}
	ratio := float64(plTotal) / float64(expTotal)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("power-law/exponential meeting volume ratio %v want ~1", ratio)
	}
}

func TestJitterPreservesMeanSize(t *testing.T) {
	cfg := defaultCfg()
	cfg.Jitter = true
	m := Exponential{cfg}
	s := m.Schedule(rand.New(rand.NewSource(5)))
	mean, err := s.MeanOpportunity()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.TransferBytes)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean opportunity %v want ~%v", mean, want)
	}
	varied := false
	for _, mt := range s.Meetings {
		if mt.Bytes != cfg.TransferBytes {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("jitter produced constant sizes")
	}
}

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	f := func(seed int64) bool {
		m := PowerLaw{Config: defaultCfg(), Alpha: 1.2}
		s1 := m.Schedule(rand.New(rand.NewSource(seed)))
		s2 := m.Schedule(rand.New(rand.NewSource(seed)))
		if len(s1.Meetings) != len(s2.Meetings) {
			return false
		}
		for i := range s1.Meetings {
			if s1.Meetings[i] != s2.Meetings[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestModelNames(t *testing.T) {
	if m, err := ByName("exponential", defaultCfg(), 0, nil); err != nil {
		t.Error(err)
	} else if _, ok := m.(Exponential); !ok {
		t.Errorf("exponential names %T", m)
	}
	if m, err := ByName("powerlaw", defaultCfg(), 0, nil); err != nil {
		t.Error(err)
	} else if _, ok := m.(PowerLaw); !ok {
		t.Errorf("powerlaw names %T", m)
	}
	if _, err := ByName("levy", defaultCfg(), 0, nil); err == nil {
		t.Error("unknown model name accepted")
	}
}

func TestPowerLawDefaultAlpha(t *testing.T) {
	// Alpha <= 0 falls back to 1 rather than generating a degenerate
	// schedule.
	pl := PowerLaw{Config: defaultCfg(), Alpha: 0}
	s := pl.Schedule(rand.New(rand.NewSource(3)))
	if len(s.Meetings) == 0 {
		t.Error("fallback alpha generated no meetings")
	}
}

// TestConfigValidate: Table 4's config passes, and each field outside
// its domain — including the non-finite values JSON cannot carry — is
// rejected.
func TestConfigValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Fatalf("Table 4 config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"one-node":          func(c *Config) { c.Nodes = 1 },
		"zero-duration":     func(c *Config) { c.Duration = 0 },
		"nan-duration":      func(c *Config) { c.Duration = math.NaN() },
		"inf-duration":      func(c *Config) { c.Duration = math.Inf(1) },
		"zero-mean-meeting": func(c *Config) { c.MeanMeeting = 0 },
		"negative-meeting":  func(c *Config) { c.MeanMeeting = -60 },
		"nan-mean-meeting":  func(c *Config) { c.MeanMeeting = math.NaN() },
		"inf-mean-meeting":  func(c *Config) { c.MeanMeeting = math.Inf(1) },
		"zero-transfer":     func(c *Config) { c.TransferBytes = 0 },
	} {
		c := defaultCfg()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("%s: %+v accepted", name, c)
		}
	}
}
