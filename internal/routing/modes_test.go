package routing_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rapid/internal/core"
	"rapid/internal/disrupt"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/epidemic"
	"rapid/internal/trace"
)

// modeBytes decodes fuzz input: each call consumes one byte, and an
// exhausted input reads as zeros.
type modeBytes []byte

// intn returns the next input byte reduced mod n (0 for n <= 1).
func (s *modeBytes) intn(n int) int {
	if n <= 1 || len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// modeCase is one decoded FuzzRunModes input.
type modeCase struct {
	plan     *trace.ContactPlan
	workload packet.Workload
	rapid    bool
	cfg      routing.Config
	spec     disrupt.Spec
	seed     uint64
	perm     int64
}

// decodeModeCase builds a small mixed contact plan — periodic points,
// windows, one-shots, starts on a 5 s grid so phases collide, windows
// clipped by the horizon — plus a workload with integer creation
// instants, so creations coincide with meetings and with window
// transfers that complete on whole seconds (power-of-two sizes and
// rates). Plan contacts may share a node pair, so two of them can meet
// at one instant.
func decodeModeCase(data []byte) modeCase {
	in := modeBytes(data)
	nodes := 3 + in.intn(4)
	horizon := 120 + 20*in.intn(8)
	c := modeCase{
		rapid: in.intn(2) == 0,
		cfg: routing.Config{
			Mode: routing.ControlInBand, MetaFraction: -1, Hops: 3,
			BufferBytes: 1024 * int64(in.intn(12)), DefaultTransferBytes: 16 << 10,
		},
	}
	if in.intn(2) == 1 {
		c.cfg.MetaFraction = 0.25
	}
	if in.intn(2) == 1 {
		c.spec = disrupt.Spec{
			Enabled:      true,
			PContactFail: 0.25 * float64(in.intn(2)),
			JitterSec:    3 * float64(in.intn(2)),
			PLoss:        0.2 * float64(in.intn(2)),
		}
		if in.intn(2) == 1 {
			c.spec.ChurnDownMean, c.spec.ChurnUpMean = 15, 60
		}
		c.seed = uint64(in.intn(256))
	}
	c.perm = int64(in.intn(256))
	bulk, bulkSeed := 64*in.intn(3), int64(in.intn(256))

	c.plan = &trace.ContactPlan{Duration: float64(horizon)}
	periods := []float64{0, 20, 30, 40, 60}
	for k := 1 + in.intn(8); k > 0; k-- {
		a := in.intn(nodes)
		b := (a + 1 + in.intn(nodes-1)) % nodes
		start := 5 * float64(in.intn(horizon/5+4))
		period := periods[in.intn(len(periods))]
		if in.intn(2) == 0 {
			c.plan.Add(packet.NodeID(a), packet.NodeID(b), start, period, 1024*int64(1+in.intn(16)))
			continue
		}
		window := 5 * float64(1+in.intn(6))
		if period > 0 && window > period {
			window = period
		}
		c.plan.AddWindow(packet.NodeID(a), packet.NodeID(b), start, period, window, 256*float64(int(1)<<in.intn(3)))
	}
	add := func(src, dstOff, size, created int) {
		c.workload = append(c.workload, &packet.Packet{
			Src: packet.NodeID(src), Dst: packet.NodeID((src + 1 + dstOff) % nodes),
			Size: 512 << size, Created: float64(created),
		})
	}
	for k := in.intn(32); k > 0; k-- {
		add(in.intn(nodes), in.intn(nodes-1), in.intn(3), in.intn(horizon))
	}
	// Bulk traffic from a seeded generator makes the workload long
	// enough that a streamed Source is pumped in several batches.
	r := rand.New(rand.NewSource(bulkSeed))
	for k := bulk; k > 0; k-- {
		add(r.Intn(nodes), r.Intn(nodes-1), r.Intn(3), r.Intn(horizon))
	}
	w := c.workload
	sort.SliceStable(w, func(i, j int) bool { return w[i].Created < w[j].Created })
	for i, p := range w {
		p.ID = packet.ID(i + 1)
	}
	return c
}

// indexKeyed reports whether the disruption realization depends on
// each occurrence's position in the schedule lists, so that reordering
// or moving rows legitimately changes the run.
func (c modeCase) indexKeyed() bool {
	return c.spec.Enabled && (c.spec.PContactFail > 0 || c.spec.JitterSec > 0)
}

// run replays the case over one schedule form (sched, or the plan when
// sched is nil) in one execution mode. It returns the summary and
// per-packet records as text (floats in shortest round-trip form, so
// equal text is bit-identical), and the hook log of a hooked run.
func (c modeCase) run(t *testing.T, sched *trace.Schedule, workers int, hooked, streamed bool) (string, string) {
	t.Helper()
	sc := routing.Scenario{
		Schedule: sched, Factory: epidemic.New(), Seed: 7,
		Cfg: c.cfg, Disrupt: c.spec, DisruptSeed: c.seed,
	}
	if sched == nil {
		sc.Plan = c.plan
	}
	if c.rapid {
		sc.Factory = core.New(core.AvgDelay)
	}
	sc.Cfg.Workers = workers
	if streamed {
		sc.Source = packet.NewSliceSource(c.workload)
	} else {
		sc.Workload = c.workload
	}
	var log strings.Builder
	if hooked {
		last := 0.0
		sc.Hooks = &routing.Hooks{
			OnGenerated: func(p *packet.Packet, now float64) {
				fmt.Fprintf(&log, "gen %d %v\n", p.ID, now)
			},
			OnDelivered: func(id packet.ID, dst packet.NodeID, now float64) {
				fmt.Fprintf(&log, "dlv %d %d %v\n", id, dst, now)
			},
			OnOpportunityDone: func(a, b packet.NodeID, capacity, spent int64, windowed bool, now float64) {
				fmt.Fprintf(&log, "opp %d %d %d %d %t %v\n", a, b, capacity, spent, windowed, now)
			},
			OnLost: func(id packet.ID, from, to packet.NodeID, now float64) {
				fmt.Fprintf(&log, "lost %d %d %d %v\n", id, from, to, now)
			},
			AfterEvent: func(net *routing.Network) {
				if now := net.Now(); now < last {
					t.Fatalf("clock ran backwards: %v after %v", now, last)
				} else {
					last = now
				}
			},
		}
	}
	col := routing.Run(sc)
	var out strings.Builder
	fmt.Fprintf(&out, "%+v\n", col.Summarize(c.plan.Duration))
	for _, r := range col.Records() {
		fmt.Fprintf(&out, "%d %t %v %d\n", r.P.ID, r.Delivered, r.DeliveredAt, r.Hops)
	}
	return out.String(), log.String()
}

// pointsAsContacts re-expresses a schedule's point meetings as
// zero-duration contacts, merged into Contacts ahead of the windows
// opening at the same instant. A meeting at an instant where a window
// closes stays a meeting: a zero-duration contact would run after
// that close (contacts keep list order, and the close was listed with
// its earlier open), a meeting runs before it.
func pointsAsContacts(s *trace.Schedule) *trace.Schedule {
	closes := map[float64]bool{}
	for _, c := range s.Contacts {
		if c.Windowed() {
			closes[c.EndWithin(s.Duration)] = true
		}
	}
	out := &trace.Schedule{Duration: s.Duration}
	i := 0
	for _, m := range s.Meetings {
		if closes[m.Time] {
			out.Meetings = append(out.Meetings, m)
			continue
		}
		for ; i < len(s.Contacts) && s.Contacts[i].Start < m.Time; i++ {
			out.Contacts = append(out.Contacts, s.Contacts[i])
		}
		out.Contacts = append(out.Contacts, trace.Contact{A: m.A, B: m.B, Start: m.Time, Bytes: m.Bytes})
	}
	out.Contacts = append(out.Contacts, s.Contacts[i:]...)
	return out
}

// permuted shuffles both lists of a copy of s.
func permuted(s *trace.Schedule, seed int64) *trace.Schedule {
	out := s.Clone()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out.Meetings), func(i, j int) { out.Meetings[i], out.Meetings[j] = out.Meetings[j], out.Meetings[i] })
	r.Shuffle(len(out.Contacts), func(i, j int) { out.Contacts[i], out.Contacts[j] = out.Contacts[j], out.Contacts[i] })
	return out
}

// stableSorted sorts a copy of s's lists by time, keeping the list
// order of same-instant rows.
func stableSorted(s *trace.Schedule) *trace.Schedule {
	out := s.Clone()
	sort.SliceStable(out.Meetings, func(i, j int) bool { return out.Meetings[i].Time < out.Meetings[j].Time })
	sort.SliceStable(out.Contacts, func(i, j int) bool { return out.Contacts[i].Start < out.Contacts[j].Start })
	return out
}

// FuzzRunModes is the cross-mode differential test of routing.Run: one
// scenario must produce the identical summary and per-packet records
// in every execution mode — the plan cursor, its Expand, and Expand
// with point meetings re-expressed as zero-duration contacts; 1, 2 and
// 8 workers; hooks off and all set (hooked runs must also log the same
// hook calls); an upfront Workload and the same packets streamed
// through a Source. A schedule with both lists shuffled must replay
// like the stable time-sort of its rows. Forms that move or reorder
// rows run only when the disruption draws are not keyed by row
// position.
func FuzzRunModes(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeModeCase(data)
		expanded := c.plan.Expand()
		type form struct {
			name  string
			sched *trace.Schedule
		}
		forms := []form{{"expand", expanded}, {"plan", nil}}
		if !c.indexKeyed() {
			forms = append(forms, form{"points-as-contacts", pointsAsContacts(expanded)})
		}
		// The references are hooked serial runs: hooks must not change
		// the outcome, so one run yields both the outcome and the log.
		check := func(name string, sched *trace.Schedule, ref, refLog string) {
			for _, workers := range []int{1, 2, 8} {
				for _, hooked := range []bool{false, true} {
					for _, streamed := range []bool{false, true} {
						got, log := c.run(t, sched, workers, hooked, streamed)
						mode := fmt.Sprintf("%s W%d hooked=%t streamed=%t", name, workers, hooked, streamed)
						if got != ref {
							t.Fatalf("%s diverged:\n got %s\nwant %s", mode, got, ref)
						}
						if hooked && log != refLog {
							t.Fatalf("%s hook log diverged:\n got %s\nwant %s", mode, log, refLog)
						}
					}
				}
			}
		}
		ref, refLog := c.run(t, expanded, 1, true, false)
		for _, form := range forms {
			check(form.name, form.sched, ref, refLog)
		}
		if c.indexKeyed() {
			return
		}
		shuffled := permuted(expanded, c.perm)
		ref, refLog = c.run(t, stableSorted(shuffled), 1, true, false)
		check("shuffled", shuffled, ref, refLog)
	})
}
