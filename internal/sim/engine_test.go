package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := New(1)
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		e.ScheduleFunc(at, func(en *Engine) {
			got = append(got, en.Now())
		})
	}
	e.Run()
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("executed %d events want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleFunc(7, func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.ScheduleFunc(5, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	e.ScheduleFunc(1, func(*Engine) {})
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	e := New(1)
	count := 0
	var chain func(en *Engine)
	chain = func(en *Engine) {
		count++
		if count < 5 {
			en.ScheduleFunc(en.Now()+1, chain)
		}
	}
	e.ScheduleFunc(0, chain)
	e.Run()
	if count != 5 {
		t.Errorf("chain executed %d times want 5", count)
	}
	if e.Now() != 4 {
		t.Errorf("final time %v want 4", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	ran := false
	h := e.ScheduleFunc(1, func(*Engine) { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Error("cancelled event executed")
	}
	if e.Executed != 0 {
		t.Errorf("Executed=%d want 0", e.Executed)
	}
	// Double-cancel and cancel-after-run are no-ops.
	h.Cancel()
	var zero Handle
	zero.Cancel()
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.ScheduleFunc(at, func(en *Engine) { got = append(got, en.Now()) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("executed %d events want 3: %v", len(got), got)
	}
	if e.Now() != 3 {
		t.Errorf("clock %v want 3", e.Now())
	}
	if e.Len() != 2 {
		t.Errorf("pending %d want 2", e.Len())
	}
	// RunUntil advances the clock even with no events in range.
	e.RunUntil(3.5)
	if e.Now() != 3.5 {
		t.Errorf("clock %v want 3.5", e.Now())
	}
	e.Run()
	if len(got) != 5 {
		t.Errorf("total executed %d want 5", len(got))
	}
}

func TestRandStreamsIndependentAndDeterministic(t *testing.T) {
	a1 := New(99).Rand("alpha").Float64()
	a2 := New(99).Rand("alpha").Float64()
	if a1 != a2 {
		t.Error("same seed+name must reproduce")
	}
	b := New(99).Rand("beta").Float64()
	if a1 == b {
		t.Error("different names should give different streams")
	}
	c := New(100).Rand("alpha").Float64()
	if a1 == c {
		t.Error("different seeds should give different streams")
	}
	// Creating a new stream must not perturb an existing one.
	e1 := New(7)
	r := e1.Rand("x")
	_ = r.Float64()
	next1 := e1.Rand("x").Float64()

	e2 := New(7)
	r2 := e2.Rand("x")
	_ = r2.Float64()
	_ = e2.Rand("y") // interleaved creation
	next2 := e2.Rand("x").Float64()
	if next1 != next2 {
		t.Error("creating stream y perturbed stream x")
	}
}

// Property: for any batch of events with random times, execution order is
// sorted by time and the engine executes all of them exactly once.
func TestEngineOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(seed)
		n := 1 + r.Intn(200)
		var got []float64
		for i := 0; i < n; i++ {
			at := r.Float64() * 1000
			e.ScheduleFunc(at, func(en *Engine) { got = append(got, en.Now()) })
		}
		e.Run()
		if len(got) != n {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return e.Executed == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStepReturnsFalseOnEmpty(t *testing.T) {
	e := New(1)
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
}
