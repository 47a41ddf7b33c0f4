package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// item is a two-key workload element.
type item struct{ a, b int64 }

func keysOf(items []item) func(int) (int64, int64) {
	return func(i int) (int64, int64) { return items[i].a, items[i].b }
}

func conflicts(x, y item) bool {
	return x.a == y.a || x.a == y.b || x.b == y.a || x.b == y.b
}

func randomItems(r *rand.Rand, n, keys int) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = item{int64(r.Intn(keys)), int64(r.Intn(keys))}
	}
	return items
}

// longestChain is the reference critical path: the longest sequence
// of events in which each shares a key with the next.
func longestChain(items []item) int {
	depth := make([]int, len(items))
	longest := 0
	for j := range items {
		depth[j] = 1
		for i := 0; i < j; i++ {
			if conflicts(items[i], items[j]) {
				depth[j] = max(depth[j], depth[i]+1)
			}
		}
		longest = max(longest, depth[j])
	}
	return longest
}

func spin(n int) int {
	x := 0
	for k := 0; k < n; k++ {
		x += k ^ x
	}
	return x
}

// trace records, on one logical clock, when each event's exec started
// and ended and when its commit started and ended.
type trace struct {
	clock                              atomic.Int64
	execs, commits                     []atomic.Int32
	start, end, commitStart, commitEnd []int64
	order                              []int // commit order
}

func newTrace(n int) *trace {
	return &trace{
		execs: make([]atomic.Int32, n), commits: make([]atomic.Int32, n),
		start: make([]int64, n), end: make([]int64, n),
		commitStart: make([]int64, n), commitEnd: make([]int64, n),
	}
}

// TestRunRandomizedInvariants drives random batches through one reused
// scheduler at several worker counts, with random per-event work to
// vary interleavings, and checks the scheduling contract: each event
// executes and commits exactly once; no event starts before its key
// predecessors finish; commits run in index order, each after every
// exec up to its own; an event whose exec completed the executed
// prefix holds its key successors until its commit returns; and Run
// returns the longest key chain.
func TestRunRandomizedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s Scheduler // reused across rounds: scratch reuse must not leak state
	for round := 0; round < 60; round++ {
		n := 1 + r.Intn(150)
		items := randomItems(r, n, 2+r.Intn(30))
		work := make([]int, n)
		for i := range work {
			work[i] = r.Intn(3000)
		}
		workers := 1 + r.Intn(8)
		tr := newTrace(n)
		depth := s.Run(n, workers, keysOf(items),
			func(i int) {
				tr.execs[i].Add(1)
				tr.start[i] = tr.clock.Add(1)
				spin(work[i])
				tr.end[i] = tr.clock.Add(1)
			},
			func(i int) {
				tr.commits[i].Add(1)
				tr.commitStart[i] = tr.clock.Add(1)
				tr.order = append(tr.order, i)
				spin(work[i] / 4)
				tr.commitEnd[i] = tr.clock.Add(1)
			})
		where := fmt.Sprintf("round %d (n %d, workers %d)", round, n, workers)
		if want := longestChain(items); depth != want {
			t.Fatalf("%s: critical path %d, want %d", where, depth, want)
		}
		for i := range n {
			if c := tr.execs[i].Load(); c != 1 {
				t.Fatalf("%s: event %d executed %d times", where, i, c)
			}
			if c := tr.commits[i].Load(); c != 1 {
				t.Fatalf("%s: event %d committed %d times", where, i, c)
			}
			if tr.order[i] != i {
				t.Fatalf("%s: commit %d was event %d", where, i, tr.order[i])
			}
		}
		if !s.nodes[0].hold {
			t.Fatalf("%s: event 0 completes the executed prefix but did not hold its successors", where)
		}
		for j := range n {
			for i := 0; i < j; i++ {
				if tr.commitStart[j] < tr.end[i] {
					t.Fatalf("%s: commit %d began before exec %d ended", where, j, i)
				}
				if conflicts(items[i], items[j]) && tr.start[j] < tr.end[i] {
					t.Fatalf("%s: event %d started before its key predecessor %d ended", where, j, i)
				}
			}
			if !s.nodes[j].hold {
				continue // released at exec: an earlier exec was still pending
			}
			for k := j + 1; k < n; k++ {
				if conflicts(items[j], items[k]) && tr.start[k] < tr.commitEnd[j] {
					t.Fatalf("%s: event %d started before commit %d returned", where, k, j)
				}
			}
		}
	}
}

// TestRunAllExecutedOnce drives Run with several worker counts and
// verifies each index executes exactly once. perKey is written
// without synchronization by design: if two key-sharing events ever
// ran concurrently, -race would flag it. It is a slice indexed by key
// (keys are < 25), not a map: distinct elements are race-free, while
// concurrent writes to distinct map keys still crash the runtime.
func TestRunAllExecutedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := randomItems(r, 500, 25)
	for _, workers := range []int{1, 2, 4, 8} {
		var s Scheduler
		counts := make([]atomic.Int32, len(items))
		perKey := make([]int, 25)
		s.Run(len(items), workers, keysOf(items), func(i int) {
			perKey[items[i].a]++
			perKey[items[i].b]++
			counts[i].Add(1)
		}, func(int) {})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

// TestRunChainFullySerial: the same pair repeated is one chain as long
// as the batch, and its events never overlap.
func TestRunChainFullySerial(t *testing.T) {
	items := []item{{1, 2}, {1, 2}, {2, 1}, {1, 2}}
	var s Scheduler
	var inFlight atomic.Int32
	var order []int
	depth := s.Run(len(items), 4, keysOf(items), func(i int) {
		if inFlight.Add(1) != 1 {
			t.Errorf("event %d overlaps another", i)
		}
		order = append(order, i)
		inFlight.Add(-1)
	}, func(int) {})
	if depth != 4 {
		t.Fatalf("repeated pair: critical path %d, want 4", depth)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("exec order %v, want index order", order)
	}
}

// TestRunSharedEndpointOrdering: (1,2) and (2,3) share node 2 and form
// a chain of two; (4,5) is independent.
func TestRunSharedEndpointOrdering(t *testing.T) {
	items := []item{{1, 2}, {2, 3}, {4, 5}}
	var s Scheduler
	var ended atomic.Bool
	depth := s.Run(len(items), 2, keysOf(items), func(i int) {
		switch i {
		case 0:
			time.Sleep(time.Millisecond)
			ended.Store(true)
		case 1:
			if !ended.Load() {
				t.Error("event 1 started before event 0 ended")
			}
		}
	}, func(int) {})
	if depth != 2 {
		t.Fatalf("critical path %d, want 2", depth)
	}
}

// TestRunDisjointConcurrent: events on disjoint keys form chains of
// one and really run at once — each exec waits until all four have
// started, which only a pool of four can satisfy.
func TestRunDisjointConcurrent(t *testing.T) {
	items := []item{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	var s Scheduler
	var started sync.WaitGroup
	started.Add(len(items))
	all := make(chan struct{})
	go func() { started.Wait(); close(all) }()
	depth := s.Run(len(items), len(items), keysOf(items), func(i int) {
		started.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("event %d: disjoint events did not run concurrently", i)
		}
	}, func(int) {})
	if depth != 1 {
		t.Fatalf("disjoint events: critical path %d, want 1", depth)
	}
}

// TestRunNoBarrierBehindSlowEvent: a slow event must not hold back
// unrelated chains. Event 0 waits until event 2 — the key successor of
// event 1 — has executed, which needs event 2 to start while event 0
// is still running and event 1's commit is stalled behind it.
func TestRunNoBarrierBehindSlowEvent(t *testing.T) {
	items := []item{{9, 9}, {0, 1}, {1, 2}}
	var s Scheduler
	ran := make(chan struct{})
	var commits []int
	depth := s.Run(len(items), 2, keysOf(items), func(i int) {
		switch i {
		case 0:
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Error("event 2 did not run while event 0 was executing")
			}
		case 2:
			close(ran)
		}
	}, func(i int) { commits = append(commits, i) })
	if depth != 2 {
		t.Fatalf("critical path %d, want 2", depth)
	}
	if fmt.Sprint(commits) != "[0 1 2]" {
		t.Fatalf("commit order %v", commits)
	}
}

// TestRunHoldsSuccessorUntilCommit: without a stall, a key successor
// starts only after its predecessor's commit returned, even with an
// idle worker waiting for it.
func TestRunHoldsSuccessorUntilCommit(t *testing.T) {
	items := []item{{0, 1}, {1, 2}, {5, 6}}
	for round := 0; round < 50; round++ {
		var s Scheduler
		var committed0, startedEarly atomic.Bool
		s.Run(len(items), 2, keysOf(items), func(i int) {
			if i == 1 && !committed0.Load() {
				startedEarly.Store(true)
			}
		}, func(i int) {
			if i == 0 {
				time.Sleep(100 * time.Microsecond)
				committed0.Store(true)
			}
		})
		if startedEarly.Load() {
			t.Fatalf("round %d: event 1 started before event 0 committed", round)
		}
	}
}

// TestRunDeterministic: the critical path and the commit order depend
// only on the keys, not on the scheduler or the worker count.
func TestRunDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	items := randomItems(r, 300, 40)
	want := -1
	for _, workers := range []int{1, 2, 4, 8} {
		var s Scheduler
		var commits []int
		depth := s.Run(len(items), workers, keysOf(items), func(i int) { spin(i * 10) },
			func(i int) { commits = append(commits, i) })
		if want < 0 {
			want = depth
		}
		if depth != want {
			t.Fatalf("workers %d: critical path %d, want %d", workers, depth, want)
		}
		for i, c := range commits {
			if c != i {
				t.Fatalf("workers %d: commit %d was event %d", workers, i, c)
			}
		}
	}
}

// TestRunPanicPropagates: a panic inside exec on any goroutine stops
// the batch and resurfaces on the caller with the same value.
func TestRunPanicPropagates(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(5)), 64, 20)
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers %d: recovered %v, want boom", workers, r)
				}
			}()
			var s Scheduler
			s.Run(len(items), workers, keysOf(items), func(i int) {
				if i == 33 {
					panic("boom")
				}
			}, func(int) {})
			t.Fatalf("workers %d: Run returned", workers)
		}()
	}
}
