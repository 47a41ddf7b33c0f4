// Package sim provides the discrete-event simulation engine that drives
// every experiment in the RAPID reproduction.
//
// The engine is deliberately minimal: a binary-heap event queue keyed by
// (time, band, sequence), a simulation clock, and named deterministic
// random streams. Scheduling an event at a time earlier than the clock is a
// programming error and panics — DTN contact traces are processed in
// strict time order, and silently reordering events would corrupt the
// causality of metadata propagation.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rapid/internal/minheap"
	"rapid/internal/shard"
)

// Event is a unit of simulated work executed at a point in time.
type Event interface {
	// Execute runs the event. The engine's clock is already advanced to
	// the event's scheduled time when Execute is called.
	Execute(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Execute implements Event.
func (f EventFunc) Execute(e *Engine) { f(e) }

// ShardEvent is an Event the parallel engine may batch with other shard
// events and execute concurrently. Two shard events conflict when their
// key sets intersect; non-conflicting events must commute. The split
// contract is:
//
//	Execute(e) ≡ ExecuteShard(e); CommitShard(e)
//
// ExecuteShard runs once the batch's earlier events on the same keys
// have executed, possibly concurrently with events on other keys and
// possibly after the clock has advanced past the event's own timestamp
// — it must not read e.Now(), schedule events, or touch any state
// outside the shards named by ShardKeys (plus event-private state).
// CommitShard runs serially, in exact heap pop order, possibly while
// later events execute; it is where globally ordered side effects
// (collector folds, scheduling) belong, and it may touch only
// event-private and run-global state. Events must carry their own
// timestamp if either phase needs it.
type ShardEvent interface {
	Event
	// ShardKeys returns the (at most two) shard identities the event
	// reads or writes during ExecuteShard. For a contact session these
	// are the endpoint node IDs; single-shard events return the same
	// key twice.
	ShardKeys() (a, b int64)
	ExecuteShard(e *Engine)
	CommitShard(e *Engine)
}

// CollectEvent is an optional ShardEvent refinement: OnCollect runs on
// the engine goroutine at the event's exact pop position, while the
// batch is still being collected and before any of it executes.
// It is the slot for bookkeeping that must happen in total pop order
// *before* dependents can observe it — registering a packet's delivery
// record before any same-batch session could deliver the packet. Like
// inline events, its effects must be invisible to the ExecuteShard of
// batch-mates popped earlier (they run after OnCollect).
type CollectEvent interface {
	ShardEvent
	OnCollect(e *Engine)
}

// InlineEvent marks an Event the parallel engine executes immediately
// during batch collection, without flushing pending shard events first.
// Only events whose effects are confined to the engine itself plus
// event-private state (the lazy stream pumps: they advance a private
// cursor and schedule future events) qualify — anything touching node
// or collector state must not be inline.
type InlineEvent interface {
	Event
	InlineShard()
}

// InlineFunc adapts a plain function to InlineEvent.
type InlineFunc func(e *Engine)

// Execute implements Event.
func (f InlineFunc) Execute(e *Engine) { f(e) }

// InlineShard implements InlineEvent.
func (InlineFunc) InlineShard() {}

// item is a scheduled event inside the queue.
type item struct {
	at    float64
	band  int32        // priority among same-time events; lower runs first
	state atomic.Int32 // queued or dead; the parallel loop moves batch items on
	seq   uint64       // tiebreaker: FIFO among same-time, same-band events
	ev    Event
}

// Item states. The serial loop leaves an executed item queued; only
// the parallel loop tracks a batch item through its phases, because
// only there can a cancel land between collection and execution.
const (
	queued    int32 = iota // in the heap, or run by the serial loop
	dead                   // cancelled before it ran
	collected              // in a batch still being collected
	armed                  // in a flushing batch, not yet started
	running                // ExecuteShard started, commit pending
	committed              // CommitShard started or done
)

// itemLess orders the event queue by (at, band, seq).
func itemLess(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ it *item }

// Cancel marks the event as dead; it will not execute and is not
// counted in Executed. Cancelling an already-executed or
// already-cancelled event is a no-op.
//
// The parallel loop keeps this exact or fails loudly:
//
//   - A cancel of a still-queued target is exact in both engines: each
//     skips the target at pop.
//   - A cancel from an OnCollect or inline event of a target already
//     collected into the pending batch is a no-op, as in the serial
//     loop, which ran the target before the canceller.
//   - A cancel from a batch-mate's CommitShard of a later batch-mate
//     that has not started ExecuteShard kills it: both phases are
//     skipped and it is uncounted, as the serial loop would skip it at
//     pop. The engine holds a key-sharing (conflicting) later event
//     back until the canceller commits, unless that commit is stalled
//     behind an earlier batch-mate still executing. If the target has
//     already started, Cancel panics: the serial loop would never have
//     run it, and the run can no longer match.
func (h Handle) Cancel() {
	if h.it == nil {
		return
	}
	for {
		switch s := h.it.state.Load(); s {
		case queued, armed:
			if h.it.state.CompareAndSwap(s, dead) {
				return
			}
		case running:
			panic("sim: a CommitShard cancelled a later batch-mate that had already started ExecuteShard " +
				"(see Handle.Cancel for when the parallel engine keeps such a cancel exact)")
		default:
			return
		}
	}
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with New.
type Engine struct {
	now     float64
	queue   minheap.Heap[*item]
	seq     uint64
	seed    int64
	streams map[string]*rand.Rand
	// Executed counts events run, useful for progress accounting and
	// regression tests on determinism.
	Executed uint64
	// AfterEvent, when non-nil, runs after every executed event — the
	// instrumentation point conformance harnesses use to assert
	// invariants (buffer occupancy, budget conservation) at event
	// granularity without perturbing the event stream. Setting it
	// disables the parallel path: the hook's contract is one callback
	// per fully applied event, which batching would violate.
	AfterEvent func(*Engine)

	// Batches, BatchedEvents and CriticalPath describe the parallel
	// loop's flushes: how many ran, how many events they held, and the
	// sum over flushes of the longest chain of key-sharing events.
	// BatchedEvents/CriticalPath is the batches' ideal parallelism.
	// They are zero under the serial loop and depend only on the event
	// stream, so they repeat exactly across runs.
	Batches       uint64
	BatchedEvents uint64
	CriticalPath  uint64

	workers int
	chains  shard.Scheduler
	batch   []*item
	// batchLimit, when positive, replaces batchCap as the flush size, so
	// tests can draw batch boundaries; the engine never sets it.
	batchLimit int
}

// New returns an engine whose named random streams derive from seed.
func New(seed int64) *Engine {
	return &Engine{
		queue:   minheap.Heap[*item]{Less: itemLess},
		seed:    seed,
		streams: make(map[string]*rand.Rand),
	}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Len returns the number of pending (possibly cancelled) events.
func (e *Engine) Len() int { return e.queue.Len() }

// Schedule enqueues ev to run at time at in the default band 0. It
// panics if at precedes the current clock (events cannot be scheduled
// in the past).
func (e *Engine) Schedule(at float64, ev Event) Handle {
	return e.ScheduleBand(at, 0, ev)
}

// ScheduleBand enqueues ev to run at time at with an explicit
// same-time priority band: among events at the same instant, lower
// bands run first, and FIFO sequence breaks ties within a band. Bands
// let lazily generated event streams (streaming workloads, contact-plan
// cursors) reproduce the exact execution order of their fully
// materialized upfront-scheduled equivalents, whose ordering at shared
// instants is otherwise fixed by insertion sequence alone. All direct
// Schedule calls use band 0, so the banded heap is byte-identical to
// the historical (time, seq) ordering unless a caller opts in.
func (e *Engine) ScheduleBand(at float64, band int32, ev Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	it := &item{at: at, band: band, seq: e.seq, ev: ev}
	e.seq++
	e.queue.Push(it)
	return Handle{it: it}
}

// ScheduleFunc is shorthand for Schedule with an EventFunc.
func (e *Engine) ScheduleFunc(at float64, f func(*Engine)) Handle {
	return e.Schedule(at, EventFunc(f))
}

// ScheduleBandFunc is shorthand for ScheduleBand with an EventFunc.
func (e *Engine) ScheduleBandFunc(at float64, band int32, f func(*Engine)) Handle {
	return e.ScheduleBand(at, band, EventFunc(f))
}

// Step executes the next pending event, returning false when the queue
// is empty. Cancelled events are skipped silently.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		it := e.queue.Pop()
		if it.state.Load() == dead {
			continue
		}
		e.now = it.at
		e.Executed++
		it.ev.Execute(e)
		if e.AfterEvent != nil {
			e.AfterEvent(e)
		}
		return true
	}
	return false
}

// Run executes events until the queue empties.
func (e *Engine) Run() {
	if e.parallel() {
		e.runParallelUntil(0, false)
		return
	}
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline, advancing the clock to
// exactly deadline afterwards. Remaining events stay queued.
func (e *Engine) RunUntil(deadline float64) {
	if e.parallel() {
		e.runParallelUntil(deadline, true)
		return
	}
	for e.queue.Len() > 0 {
		// Peek.
		next := e.queue.Items[0]
		if next.state.Load() == dead {
			e.queue.Pop()
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// SetWorkers sets the number of worker goroutines the engine may spread
// batched ShardEvents across. n <= 1 keeps the historical
// fully serial loop. The parallel loop is byte-identical to the serial
// one for any event mix honoring the ShardEvent/InlineEvent contracts.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

func (e *Engine) parallel() bool {
	return e.workers > 1 && e.AfterEvent == nil
}

// batchCap bounds how many consecutive ShardEvents are collected before
// a flush: enough to keep the pool busy along the key chains, small
// enough that per-batch scheduling state stays cache-resident.
func (e *Engine) batchCap() int {
	c := 32 * e.workers
	if c < 64 {
		c = 64
	}
	if c > 1024 {
		c = 1024
	}
	return c
}

// runParallelUntil is the batching counterpart of the Step loop. It
// pops events in exact heap order, accumulating maximal runs of
// consecutive ShardEvents (inline events execute immediately without
// breaking a run); each run is executed across the pool along its
// per-key chains and committed serially in pop order. Any other event
// is a flush barrier and runs serially in place, so the total order of
// observable effects matches the serial engine exactly.
func (e *Engine) runParallelUntil(deadline float64, bounded bool) {
	limit := e.batchCap()
	if e.batchLimit > 0 {
		limit = e.batchLimit
	}
	for e.queue.Len() > 0 {
		next := e.queue.Items[0]
		if next.state.Load() == dead {
			e.queue.Pop()
			continue
		}
		if bounded && next.at > deadline {
			break
		}
		switch ev := next.ev.(type) {
		case ShardEvent:
			e.queue.Pop()
			e.now = next.at
			e.Executed++
			next.state.Store(collected)
			if ce, ok := next.ev.(CollectEvent); ok {
				ce.OnCollect(e)
			}
			e.batch = append(e.batch, next)
			if len(e.batch) >= limit {
				e.flushBatch()
			}
		case InlineEvent:
			e.queue.Pop()
			e.now = next.at
			e.Executed++
			ev.Execute(e)
		default:
			e.flushBatch()
			e.queue.Pop()
			e.now = next.at
			e.Executed++
			ev.Execute(e)
		}
	}
	e.flushBatch()
	if bounded && e.now < deadline {
		e.now = deadline
	}
}

// flushBatch executes and commits the pending ShardEvent batch as
// per-key dependency chains (shard.Scheduler): each item waits only for
// the previous batch items on its shard keys, and commits run serially
// in exact pop order as the executed prefix grows, overlapping later
// items' ExecuteShard.
//
// Cancellation stays live across the flush: an item cancelled by an
// earlier batch-mate's CommitShard before it started is skipped in both
// phases and uncounted from Executed (collection counted it eagerly),
// exactly as the serial loop skips a dead event at pop. The scheduler
// holds an item's key successors until its commit unless that commit
// is stalled behind a batch-mate still executing; a cancel of a target
// that did start panics (see Handle.Cancel). The start and the cancel
// race on one atomic state word, so exactly one of them wins.
func (e *Engine) flushBatch() {
	n := len(e.batch)
	if n == 0 {
		return
	}
	for _, it := range e.batch {
		it.state.Store(armed)
	}
	depth := e.chains.Run(n, e.workers,
		func(i int) (int64, int64) {
			return e.batch[i].ev.(ShardEvent).ShardKeys()
		},
		func(i int) {
			if it := e.batch[i]; it.state.CompareAndSwap(armed, running) {
				it.ev.(ShardEvent).ExecuteShard(e)
			}
		},
		func(i int) {
			it := e.batch[i]
			if it.state.Load() == dead {
				e.Executed--
				return
			}
			it.state.Store(committed)
			it.ev.(ShardEvent).CommitShard(e)
		})
	e.Batches++
	e.BatchedEvents += uint64(n)
	e.CriticalPath += uint64(depth)
	for i := range e.batch {
		e.batch[i] = nil
	}
	e.batch = e.batch[:0]
}

// Rand returns the named deterministic random stream, creating it on
// first use. Distinct names yield independent streams derived from the
// engine seed, so adding a new consumer of randomness does not perturb
// existing streams — a property the trace-validation experiment
// (Fig. 3) depends on.
func (e *Engine) Rand(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(e.seed ^ hashString(name)))
	e.streams[name] = r
	return r
}

// hashString is FNV-1a, inlined to avoid importing hash/fnv for a single
// 64-bit hash.
func hashString(s string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return int64(h)
}
