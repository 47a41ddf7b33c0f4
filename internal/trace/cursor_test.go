package trace

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rapid/internal/packet"
)

// expandReference lists the plan's occurrences with its own
// enumeration loop, independent of the cursor, and sorts them by the
// cursor's documented key: time, points before windows, A, B, the
// unclipped Window, then the contact's index in the plan. It is the
// reference sequence the cursor (and so Expand) must reproduce exactly.
func expandReference(cp *ContactPlan) []Contact {
	type entry struct {
		c      Contact
		window float64
		idx    int
	}
	if math.IsNaN(cp.Duration) || math.IsInf(cp.Duration, 0) {
		return nil
	}
	var es []entry
	for idx, pc := range cp.Contacts {
		if math.IsNaN(pc.Start) || math.IsInf(pc.Start, 0) ||
			math.IsNaN(pc.Period) || math.IsInf(pc.Period, 0) {
			continue
		}
		for i := 0; ; i++ {
			t := pc.Start + float64(i)*pc.Period
			if t >= cp.Duration || i > MaxOccurrences {
				break
			}
			if pc.Window > 0 {
				w := pc.Window
				if t+w > cp.Duration {
					w = cp.Duration - t // clip to the horizon
				}
				if w > 0 {
					c := Contact{A: pc.A, B: pc.B, Start: t, Duration: w, RateBps: pc.RateBps}
					es = append(es, entry{c, pc.Window, idx})
				}
			} else {
				c := Contact{A: pc.A, B: pc.B, Start: t, Bytes: pc.Bytes}
				es = append(es, entry{c, 0, idx})
			}
			if pc.Period <= 0 {
				break // one-shot contact
			}
		}
	}
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.c.Start != b.c.Start {
			return a.c.Start < b.c.Start
		}
		if aw, bw := a.window > 0, b.window > 0; aw != bw {
			return !aw
		}
		if a.c.A != b.c.A {
			return a.c.A < b.c.A
		}
		if a.c.B != b.c.B {
			return a.c.B < b.c.B
		}
		if a.window != b.window {
			return a.window < b.window
		}
		return a.idx < b.idx
	})
	out := make([]Contact, len(es))
	for i, e := range es {
		out[i] = e.c
	}
	return out
}

// drainCursor collects the cursor's full sequence.
func drainCursor(cp *ContactPlan, merge bool) []Contact {
	cur := cp.Cursor(merge)
	var out []Contact
	for {
		c, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// checkEquivalent asserts cursor order and content match the
// reference element for element, and that Occurrences counts the
// reference's point and window occurrences.
func checkEquivalent(t *testing.T, cp *ContactPlan) {
	t.Helper()
	want := expandReference(cp)
	got := drainCursor(cp, false)
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d occurrences, reference %d", len(got), len(want))
	}
	points := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: cursor %+v != reference %+v", i, got[i], want[i])
		}
		if !want[i].Windowed() {
			points++
		}
	}
	if p, w := cp.Occurrences(); p != points || w != len(want)-points {
		t.Fatalf("Occurrences() = %d points, %d windows; reference has %d, %d", p, w, points, len(want)-points)
	}
}

func TestCursorMatchesExpandPoints(t *testing.T) {
	cp := &ContactPlan{Duration: 500}
	cp.Add(0, 1, 10, 60, 1<<10)
	cp.Add(1, 2, 10, 60, 2<<10) // phase collision with the first
	cp.Add(0, 2, 35, 0, 4<<10)  // one-shot
	cp.Add(2, 3, 5, 100, 1<<10)
	checkEquivalent(t, cp)
}

func TestCursorMatchesExpandWindows(t *testing.T) {
	cp := &ContactPlan{Duration: 400}
	cp.AddWindow(0, 1, 20, 100, 30, 8<<10)
	cp.AddWindow(1, 2, 20, 100, 30, 4<<10)  // same instants, different pair
	cp.AddWindow(0, 2, 350, 100, 80, 2<<10) // clipped at the horizon
	cp.Add(2, 3, 20, 100, 1<<10)            // point at the windows' instant
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, cp)
}

// TestCursorMatchesExpandSamePairTies: contacts of one pair that meet
// at one instant, and differ only where Schedule.Sort's (time, A, B)
// or (start, A, B, clipped duration) keys cannot tell them apart, come
// out in the documented order: by unclipped Window, then contact index.
func TestCursorMatchesExpandSamePairTies(t *testing.T) {
	cp := &ContactPlan{Duration: 100}
	cp.Add(0, 1, 10, 40, 2<<10)
	cp.Add(0, 1, 10, 40, 1<<10) // same pair and instants, other Bytes
	// Two windows of one pair opening at 90, both clipped to the last
	// 10 s of the horizon: equal clipped durations, different rates.
	cp.AddWindow(2, 3, 90, 0, 50, 4<<10)
	cp.AddWindow(2, 3, 90, 0, 30, 8<<10)
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, cp)
	got := drainCursor(cp, false)
	if got[0].Bytes != 2<<10 || got[1].Bytes != 1<<10 {
		t.Errorf("point twins at t=10 out of contact order: %+v, %+v", got[0], got[1])
	}
	last := got[len(got)-2:]
	if last[0].RateBps != 8<<10 || last[1].RateBps != 4<<10 || last[0].Duration != last[1].Duration {
		t.Errorf("clipped window twins not in unclipped-window order: %+v", last)
	}
}

func TestCursorHorizonExclusive(t *testing.T) {
	// An occurrence landing exactly on the horizon is excluded
	// (Schedule.Validate's half-open interval).
	cp := &ContactPlan{Duration: 100}
	cp.Add(0, 1, 0, 50, 1<<10) // occurrences at 0, 50; 100 excluded
	got := drainCursor(cp, false)
	if len(got) != 2 {
		t.Fatalf("got %d occurrences, want 2 (horizon is exclusive)", len(got))
	}
	checkEquivalent(t, cp)
}

// TestOccurrencesBoundaries: Occurrences counts exactly the cursor's
// occurrences where floating point decides the last one — Start +
// i·Period landing on the horizon although the quotient
// (horizon − Start) / Period exceeds i, a start on the horizon — and
// at the MaxOccurrences cap.
func TestOccurrencesBoundaries(t *testing.T) {
	step := 0.1
	cp := &ContactPlan{Duration: 3 * step} // 0.30000000000000004
	cp.Add(0, 1, 0, step, 1)               // 3·step is the horizon: 3 occurrences
	cp.Add(0, 1, step, step, 1)            // step + 2·step is the horizon: 2 occurrences
	cp.Add(1, 2, 3*step, step, 1)          // starts on the horizon: none
	cp.Add(1, 2, 0.2, 0, 1)                // one-shot
	cp.AddWindow(0, 2, 0, step, step/2, 1) // 3 windows
	checkEquivalent(t, cp)
	if p, w := cp.Occurrences(); p != 3+2+1 || w != 3 {
		t.Errorf("Occurrences() = %d points, %d windows; want 6, 3", p, w)
	}
	// Counters run 0..MaxOccurrences (see advance); draining that many
	// through the reference is too slow for a unit test.
	capped := &ContactPlan{Duration: 1}
	capped.Add(2, 3, 0, 1e-7, 1)
	if p, _ := capped.Occurrences(); p != MaxOccurrences+1 {
		t.Errorf("capped Occurrences() = %d points, want %d", p, MaxOccurrences+1)
	}
}

func TestCursorMatchesExpandRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cp := &ContactPlan{Duration: 200 + r.Float64()*800}
		n := 1 + r.Intn(12)
		for k := 0; k < n; k++ {
			a := packet.NodeID(r.Intn(6))
			b := packet.NodeID(r.Intn(6))
			if a == b {
				b = (b + 1) % 6
			}
			start := r.Float64() * cp.Duration
			period := 0.0
			if r.Float64() < 0.8 {
				period = 5 + r.Float64()*100
			}
			if period > 0 && r.Float64() < 0.5 {
				cp.AddWindow(a, b, start, period, r.Float64()*period, 1+r.Float64()*1e4)
			} else {
				cp.Add(a, b, start, period, int64(r.Intn(1<<16)))
			}
		}
		checkEquivalent(t, cp)
	}
}

func TestCursorMergeAbutting(t *testing.T) {
	// Window == Period: occurrences abut exactly, so the merged cursor
	// coalesces the whole run into one window spanning the horizon.
	cp := &ContactPlan{Duration: 500}
	cp.AddWindow(0, 1, 0, 50, 50, 1000)
	got := drainCursor(cp, true)
	if len(got) != 1 {
		t.Fatalf("merged cursor yielded %d windows, want 1", len(got))
	}
	w := got[0]
	if w.Start != 0 || w.Duration != 500 || w.RateBps != 1000 {
		t.Fatalf("merged window %+v, want [0, 500) at 1000 B/s", w)
	}
	// Capacity is conserved: the merged window carries exactly the sum
	// of the occurrences it replaced.
	var sum float64
	for _, c := range drainCursor(cp, false) {
		sum += c.Duration * c.RateBps
	}
	if merged := w.Duration * w.RateBps; merged != sum {
		t.Errorf("merged capacity %v != summed occurrence capacity %v", merged, sum)
	}
}

func TestCursorMergeLeavesGappedWindowsAlone(t *testing.T) {
	// Window < Period: occurrences do not abut, so merging must not
	// change the sequence at all.
	cp := &ContactPlan{Duration: 300}
	cp.AddWindow(0, 1, 10, 60, 20, 500)
	cp.Add(1, 2, 0, 40, 1<<10)
	plain, merged := drainCursor(cp, false), drainCursor(cp, true)
	if len(plain) != len(merged) {
		t.Fatalf("merge changed occurrence count: %d != %d", len(merged), len(plain))
	}
	for i := range plain {
		if plain[i] != merged[i] {
			t.Fatalf("occurrence %d: merged %+v != plain %+v", i, merged[i], plain[i])
		}
	}
}

// TestCursorNodes: the plan's node set is that of the contacts that
// occur within the horizon — a contact whose first occurrence falls at
// or past it never meets — and equals its expansion's.
func TestCursorNodes(t *testing.T) {
	cp := &ContactPlan{Duration: 100}
	cp.Add(3, 1, 0, 0, 1)
	cp.AddWindow(2, 5, 10, 0, 5, 100)
	cp.Add(4, 6, 100, 50, 1)          // first occurrence at the horizon
	cp.AddWindow(7, 8, 150, 0, 5, 10) // one-shot past it
	got := cp.Nodes()
	want := []packet.NodeID{1, 2, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	if exp := cp.Expand().Nodes(); !slices.Equal(got, exp) {
		t.Fatalf("Nodes() = %v, Expand().Nodes() = %v", got, exp)
	}
}

// TestCursorDrainAllocs: once constructed, the cursor yields every
// occurrence without allocating — its heap moves occurrences by value.
func TestCursorDrainAllocs(t *testing.T) {
	cp := &ContactPlan{Duration: 1000}
	for k := 0; k < 40; k++ {
		a, b := packet.NodeID(k%7), packet.NodeID(7+k%5)
		if k%2 == 0 {
			cp.AddWindow(a, b, float64(k), 3+float64(k%11), 1, 1e4)
		} else {
			cp.Add(a, b, float64(k)/2, 2+float64(k%13), 1<<10)
		}
	}
	cur := cp.Cursor(false)
	yielded := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := cur.Next(); ok {
			yielded++
		}
	})
	if yielded < 2001 {
		t.Fatalf("plan yielded only %d occurrences; the measurement needs a longer plan", yielded)
	}
	if allocs != 0 {
		t.Errorf("Next allocates %v per occurrence, want 0", allocs)
	}
}
