package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The parallel engine must replay any mix of shard, inline and plain
// events with effects observably identical to the serial loop. The toy
// model here: an array of cells; a shard event adds to two cells during
// ExecuteShard and appends an audit entry at commit; a plain event
// reads the running total (so it can observe misordering); an inline
// event schedules follow-ups.

type cellEvent struct {
	cells *[]int
	audit *[]string
	a, b  int
	inc   int
	// snapA/snapB capture the event's own post-increment view of its
	// cells during ExecuteShard. Per the ShardEvent contract the commit
	// phase must not re-read shard state (later batch members may have
	// advanced it); it reports the captured view, which the conflict
	// rule makes deterministic.
	snapA, snapB int
	// spin is busy work in ExecuteShard that varies interleavings.
	spin, spun int
}

func (ev *cellEvent) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *cellEvent) ShardKeys() (int64, int64) { return int64(ev.a), int64(ev.b) }

func (ev *cellEvent) ExecuteShard(e *Engine) {
	for k := 0; k < ev.spin; k++ {
		ev.spun += k ^ ev.spun
	}
	(*ev.cells)[ev.a] += ev.inc
	if ev.b != ev.a {
		(*ev.cells)[ev.b] += ev.inc
	}
	ev.snapA = (*ev.cells)[ev.a]
	ev.snapB = (*ev.cells)[ev.b]
}

func (ev *cellEvent) CommitShard(e *Engine) {
	*ev.audit = append(*ev.audit, fmt.Sprintf("commit %d+%d cells %d/%d", ev.a, ev.b, ev.snapA, ev.snapB))
}

// runMix replays one deterministic random mix of events and returns
// the final cells, the audit log and the engine.
func runMix(workers int, seed int64) ([]int, []string, *Engine) {
	const nCells = 12
	cells := make([]int, nCells)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		at := float64(r.Intn(50))
		switch r.Intn(10) {
		case 0: // plain event: flush barrier observing global state
			e.ScheduleFunc(at, func(*Engine) {
				total := 0
				for _, c := range cells {
					total += c
				}
				audit = append(audit, fmt.Sprintf("barrier total %d", total))
			})
		case 1: // inline event scheduling a follow-up shard event
			a, b, inc := r.Intn(nCells), r.Intn(nCells), r.Intn(5)
			e.ScheduleBand(at, -1, InlineFunc(func(e *Engine) {
				e.Schedule(e.Now()+1, &cellEvent{cells: &cells, audit: &audit, a: a, b: b, inc: inc})
			}))
		default:
			e.Schedule(at, &cellEvent{
				cells: &cells, audit: &audit,
				a: r.Intn(nCells), b: r.Intn(nCells), inc: r.Intn(5),
			})
		}
	}
	e.Run()
	return cells, audit, e
}

func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		wantCells, wantAudit, _ := runMix(1, seed)
		for _, workers := range []int{2, 4, 8} {
			gotCells, gotAudit, _ := runMix(workers, seed)
			for i := range wantCells {
				if gotCells[i] != wantCells[i] {
					t.Fatalf("seed %d workers %d: cell %d = %d, want %d",
						seed, workers, i, gotCells[i], wantCells[i])
				}
			}
			if len(gotAudit) != len(wantAudit) {
				t.Fatalf("seed %d workers %d: audit length %d, want %d",
					seed, workers, len(gotAudit), len(wantAudit))
			}
			for i := range wantAudit {
				if gotAudit[i] != wantAudit[i] {
					t.Fatalf("seed %d workers %d: audit[%d] = %q, want %q",
						seed, workers, i, gotAudit[i], wantAudit[i])
				}
			}
		}
	}
}

func TestParallelRunUntilDeadline(t *testing.T) {
	cells := make([]int, 4)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	for i := 0; i < 20; i++ {
		e.Schedule(float64(i), &cellEvent{cells: &cells, audit: &audit, a: i % 4, b: (i + 1) % 4, inc: 1})
	}
	e.RunUntil(9.5)
	if got := len(audit); got != 10 {
		t.Fatalf("events committed by deadline: %d, want 10", got)
	}
	if e.Now() != 9.5 {
		t.Fatalf("clock after bounded run: %v, want 9.5", e.Now())
	}
	e.RunUntil(100)
	if got := len(audit); got != 20 {
		t.Fatalf("events committed after resume: %d, want 20", got)
	}
}

func TestParallelCancelledSkipped(t *testing.T) {
	cells := make([]int, 2)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	h := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 7})
	e.Schedule(2, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 1})
	h.Cancel()
	e.Run()
	if cells[0] != 1 || cells[1] != 1 {
		t.Fatalf("cancelled shard event ran: cells %v", cells)
	}
}

// cancelAtCommit is a cellEvent whose commit phase cancels another
// scheduled event — the contract-legal way a batch-mate can die after
// collection. Execute is spelled out because Go embedding is not
// virtual: cellEvent.Execute would call cellEvent.CommitShard, not
// ours.
type cancelAtCommit struct {
	cellEvent
	target *Handle
}

func (ev *cancelAtCommit) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *cancelAtCommit) CommitShard(e *Engine) {
	ev.cellEvent.CommitShard(e)
	ev.target.Cancel()
}

// runCommitCancelMix schedules, at one instant, a canceller whose
// commit kills a conflicting later event, plus an independent
// bystander. All three land in one batch under the parallel engine, so
// the cancelled event is dead only after collection — the exact window
// the old flushBatch ignored.
func runCommitCancelMix(workers int) ([]int, []string, uint64) {
	cells := make([]int, 4)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	canceller := &cancelAtCommit{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 3}}
	e.Schedule(1, canceller)
	target := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 1, b: 2, inc: 5})
	canceller.target = &target
	e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 3, b: 3, inc: 1})
	e.Run()
	return cells, audit, e.Executed
}

// TestParallelCommitCancelMatchesSerial is the regression test for the
// flushBatch dead-item bug: a commit-phase cancel of a conflicting
// batch-mate must suppress both of its phases and its Executed count,
// exactly as the serial loop skips the dead event at pop. Against the
// old flushBatch this fails three ways: the target's wave contaminates
// cells 1 and 2, its commit appends an extra audit line, and Executed
// counts it.
func TestParallelCommitCancelMatchesSerial(t *testing.T) {
	wantCells, wantAudit, wantExec := runCommitCancelMix(1)
	if wantExec != 2 {
		t.Fatalf("serial Executed = %d, want 2 (cancelled event uncounted)", wantExec)
	}
	for _, workers := range []int{2, 4, 8} {
		gotCells, gotAudit, gotExec := runCommitCancelMix(workers)
		if fmt.Sprint(gotCells) != fmt.Sprint(wantCells) {
			t.Fatalf("workers %d: cells %v, want %v", workers, gotCells, wantCells)
		}
		if fmt.Sprint(gotAudit) != fmt.Sprint(wantAudit) {
			t.Fatalf("workers %d: audit %q, want %q", workers, gotAudit, wantAudit)
		}
		if gotExec != wantExec {
			t.Fatalf("workers %d: Executed %d, want %d", workers, gotExec, wantExec)
		}
	}
}

// TestParallelCollectCancelPending pins the pop check: an OnCollect (or
// inline) cancel of a same-instant event that has NOT yet been popped
// is exact in both engines — the target is skipped at pop and never
// collected.
func TestParallelCollectCancelPending(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cells := make([]int, 3)
		var audit []string
		e := New(1)
		e.SetWorkers(workers)
		var target Handle
		e.ScheduleBand(1, -1, InlineFunc(func(*Engine) { target.Cancel() }))
		target = e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 7})
		e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 2, b: 2, inc: 1})
		e.Run()
		if cells[0] != 0 || cells[1] != 0 || cells[2] != 1 {
			t.Fatalf("workers %d: cells %v, want [0 0 1]", workers, cells)
		}
		if e.Executed != 2 {
			t.Fatalf("workers %d: Executed %d, want 2", workers, e.Executed)
		}
	}
}

// TestParallelBatchedCancelSuppressed is the minimal two-event form of
// the commit-cancel regression: with no bystander in the batch, the
// cancelled event must still be suppressed in both phases and
// uncounted.
func TestParallelBatchedCancelSuppressed(t *testing.T) {
	cells := make([]int, 3)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	canceller := &cancelAtCommit{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 0, b: 0, inc: 1}}
	e.Schedule(1, canceller)
	target := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 9})
	canceller.target = &target
	e.Run()
	if cells[0] != 1 || cells[1] != 0 {
		t.Fatalf("cancelled batch-mate ran: cells %v", cells)
	}
	if e.Executed != 1 {
		t.Fatalf("Executed %d, want 1", e.Executed)
	}
}

// TestParallelAfterEventFallsBack pins the gate: an engine with an
// AfterEvent hook must use the serial loop even when workers are set.
func TestParallelAfterEventFallsBack(t *testing.T) {
	e := New(1)
	e.SetWorkers(8)
	count := 0
	e.AfterEvent = func(*Engine) { count++ }
	cells := make([]int, 2)
	var audit []string
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 1})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("AfterEvent fired %d times, want 5", count)
	}
}

// collectCanceller is a cellEvent whose OnCollect cancels another
// event, making it a CollectEvent.
type collectCanceller struct {
	cellEvent
	target *Handle
}

func (ev *collectCanceller) Execute(e *Engine) {
	ev.OnCollect(e)
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *collectCanceller) OnCollect(*Engine) { ev.target.Cancel() }

// runCollectCancelMix cancels two already-collected batch-mates at one
// instant, one from an OnCollect and one from an inline event popped
// after it, then observes the cells from a barrier.
func runCollectCancelMix(workers int) ([]int, []string, uint64) {
	cells := make([]int, 6)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	first := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 3})
	second := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 1, b: 2, inc: 5})
	e.Schedule(1, &collectCanceller{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 3, b: 4, inc: 1}, target: &first})
	e.Schedule(1, InlineFunc(func(*Engine) { second.Cancel() }))
	e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 2, b: 5, inc: 2})
	e.ScheduleFunc(2, func(*Engine) { audit = append(audit, fmt.Sprint("barrier ", cells)) })
	e.Run()
	return cells, audit, e.Executed
}

// TestParallelCollectCancelCollectedIsNoop pins case (a) of the cancel
// contract: an OnCollect or inline cancel of a batch-mate collected
// before it is a no-op, because the serial engine ran that batch-mate
// before the canceller.
func TestParallelCollectCancelCollectedIsNoop(t *testing.T) {
	wantCells, wantAudit, wantExec := runCollectCancelMix(1)
	if wantExec != 6 {
		t.Fatalf("serial Executed = %d, want 6 (both targets already ran)", wantExec)
	}
	for _, workers := range []int{2, 4, 8} {
		gotCells, gotAudit, gotExec := runCollectCancelMix(workers)
		if fmt.Sprint(gotCells) != fmt.Sprint(wantCells) {
			t.Fatalf("workers %d: cells %v, want %v", workers, gotCells, wantCells)
		}
		if fmt.Sprint(gotAudit) != fmt.Sprint(wantAudit) {
			t.Fatalf("workers %d: audit %q, want %q", workers, gotAudit, wantAudit)
		}
		if gotExec != wantExec {
			t.Fatalf("workers %d: Executed %d, want %d", workers, gotExec, wantExec)
		}
	}
}

// hookEvent is a cellEvent that runs a test hook before its
// ExecuteShard.
type hookEvent struct {
	cellEvent
	hook func()
}

func (ev *hookEvent) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *hookEvent) ExecuteShard(e *Engine) {
	ev.hook()
	ev.cellEvent.ExecuteShard(e)
}

// TestParallelStalledCommitCancelPanics pins case (b) of the cancel
// contract: a commit that cancels a later batch-mate which already
// started ExecuteShard panics instead of diverging silently. The slow
// first event waits until the target has run, so the canceller's
// commit is stalled behind it while the target, released by the
// canceller's execution, runs on the other goroutine.
func TestParallelStalledCommitCancelPanics(t *testing.T) {
	cells := make([]int, 10)
	var audit []string
	e := New(1)
	e.SetWorkers(2)
	ran := make(chan struct{})
	e.Schedule(1, &hookEvent{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 9, b: 9, inc: 1}, hook: func() {
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Error("the target did not run while the first event was executing")
		}
	}})
	canceller := &cancelAtCommit{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 3}}
	e.Schedule(1, canceller)
	target := e.Schedule(1, &hookEvent{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 1, b: 2, inc: 5}, hook: func() { close(ran) }})
	canceller.target = &target
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "already started") {
			t.Fatalf("recovered %v, want the cancel-contract panic", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned; want a cancel-contract panic")
}

// TestParallelCounters: the batch counters depend only on the event
// stream, so they repeat exactly; the serial loop leaves them zero;
// and no batch's critical path exceeds its width.
func TestParallelCounters(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		_, _, serial := runMix(1, seed)
		if serial.Batches != 0 || serial.BatchedEvents != 0 || serial.CriticalPath != 0 {
			t.Fatalf("seed %d: serial counters %d/%d/%d, want zero",
				seed, serial.Batches, serial.BatchedEvents, serial.CriticalPath)
		}
		for _, workers := range []int{2, 8} {
			_, _, a := runMix(workers, seed)
			_, _, b := runMix(workers, seed)
			if a.Batches != b.Batches || a.BatchedEvents != b.BatchedEvents || a.CriticalPath != b.CriticalPath {
				t.Fatalf("seed %d workers %d: counters %d/%d/%d then %d/%d/%d", seed, workers,
					a.Batches, a.BatchedEvents, a.CriticalPath, b.Batches, b.BatchedEvents, b.CriticalPath)
			}
			if a.Batches == 0 || a.CriticalPath < a.Batches || a.CriticalPath > a.BatchedEvents {
				t.Fatalf("seed %d workers %d: want Batches ≤ CriticalPath ≤ BatchedEvents, got %d/%d/%d",
					seed, workers, a.Batches, a.CriticalPath, a.BatchedEvents)
			}
		}
	}
}

// runBytes replays a mix decoded from fuzz input, four bytes an event:
// a kind, a time, two cells and an increment/spin byte.
func runBytes(workers, batch int, data []byte) ([]int, []string, uint64) {
	const nCells = 16
	cells := make([]int, nCells)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	e.batchLimit = batch
	for n := 0; len(data) >= 4 && n < 256; n++ {
		op, at, ab, x := data[0], float64(data[1]%32), data[2], data[3]
		data = data[4:]
		a, b, inc, spin := int(ab>>4), int(ab&15), int(x%5), int(x>>4)*50
		switch op % 8 {
		case 0: // plain event: flush barrier observing every cell
			e.ScheduleFunc(at, func(*Engine) {
				audit = append(audit, fmt.Sprint("barrier ", cells))
			})
		case 1: // inline event scheduling a follow-up shard event
			e.ScheduleBand(at, int32(op>>3)%3-1, InlineFunc(func(e *Engine) {
				e.Schedule(e.Now()+float64(x%3), &cellEvent{cells: &cells, audit: &audit, a: a, b: b, inc: inc, spin: spin})
			}))
		default:
			e.Schedule(at, &cellEvent{cells: &cells, audit: &audit, a: a, b: b, inc: inc, spin: spin})
		}
	}
	e.Run()
	return cells, audit, e.Executed
}

// FuzzParallelMix replays random mixes of shard, barrier and inline
// events, with per-event busy work to vary interleavings, and compares
// the parallel engine at 2, 4 and 8 workers with the serial loop cell
// for cell and audit line for audit line. batch draws the flush size
// (0 keeps the engine's batchCap), so batches end at drawn points.
func FuzzParallelMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		wantCells, wantAudit, wantExec := runBytes(1, 0, data)
		for _, workers := range []int{2, 4, 8} {
			gotCells, gotAudit, gotExec := runBytes(workers, int(batch), data)
			if fmt.Sprint(gotCells) != fmt.Sprint(wantCells) {
				t.Fatalf("workers %d: cells %v, want %v", workers, gotCells, wantCells)
			}
			if len(gotAudit) != len(wantAudit) {
				t.Fatalf("workers %d: audit length %d, want %d", workers, len(gotAudit), len(wantAudit))
			}
			for i := range wantAudit {
				if gotAudit[i] != wantAudit[i] {
					t.Fatalf("workers %d: audit[%d] = %q, want %q", workers, i, gotAudit[i], wantAudit[i])
				}
			}
			if gotExec != wantExec {
				t.Fatalf("workers %d: Executed %d, want %d", workers, gotExec, wantExec)
			}
		}
	})
}

// BenchmarkFlush times one 64-event flush with a constellation-like
// key pattern — 32 disjoint pairs plus chains of four over eight hub
// nodes — and fixed busy work per event. workers=1 is the serial loop
// over the same events.
func BenchmarkFlush(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cells := make([]int, 200)
			var audit []string
			events := make([]*cellEvent, 64)
			for i := range events {
				ev := &cellEvent{cells: &cells, audit: &audit, inc: 1, spin: 20000}
				if i%2 == 0 {
					ev.a, ev.b = 100+i, 101+i
				} else {
					ev.a, ev.b = i/2%8, 8+i/2%8
				}
				events[i] = ev
			}
			e := New(1)
			e.SetWorkers(workers)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, ev := range events {
					e.Schedule(float64(n), ev)
				}
				e.Run()
				audit = audit[:0]
			}
			if workers > 1 {
				b.ReportMetric(float64(e.BatchedEvents)/float64(e.CriticalPath), "ideal-parallelism")
			}
		})
	}
}
