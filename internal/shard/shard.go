// Package shard runs batches of two-key events as per-key dependency
// chains across a bounded worker pool. It is the scheduler behind the
// parallel simulation engine (sim.Engine.SetWorkers): two events
// conflict when their key sets intersect — for contact sessions the
// keys are the endpoint node IDs — and non-conflicting events commute,
// so each event need only wait for the latest earlier event on each of
// its keys. Every event runs in two phases: exec, concurrently with
// events on other keys, then commit, serially in index order. The
// package has no dependencies and no global state; the chains are a
// pure function of the input order and keys.
package shard

import (
	"math/bits"
	"sync"
)

// Scheduler runs batches of events. The zero value is ready to use. A
// Scheduler reuses its key map, chain nodes and ready set across Run
// calls, so one long-lived scheduler per engine keeps per-batch
// allocation flat. Not safe for concurrent Run calls.
type Scheduler struct {
	last  map[int64]int32 // key -> latest event linked on it
	nodes []node
	ready []uint64 // bitset of events free to exec

	exec, commit func(i int)

	mu         sync.Mutex
	wake       sync.Cond
	executed   int  // every event below executed has finished exec
	committed  int  // every event below committed has finished commit
	committing bool // one goroutine at a time commits
	failure    any  // first panic value; never nil once set
}

// node is one event's place in the chains.
type node struct {
	succ  [2]int32 // next event on each key, -1 when none
	wait  int8     // key predecessors not yet released
	done  bool     // exec returned
	hold  bool     // successors are released after commit, not after exec
	depth int32    // events on the longest chain ending here
}

// Run executes and commits events 0..n-1 and returns the batch's
// critical path: the number of events on its longest key chain.
//
// Event i depends on the latest earlier event sharing each of its keys
// (keys returns at most two; a single-key event returns one key twice).
// exec(i) starts once every key predecessor is released, and idle
// goroutines — the calling one plus up to workers-1 others — take the
// lowest-index free event first. commit(i) runs serially in index
// order once exec(0..i) have returned, possibly concurrently with exec
// of later events.
//
// A predecessor p is released as soon as exec(p) returns if an earlier
// event has not finished exec yet (commit(p) is stalled behind it
// anyway); otherwise it is released after commit(p) returns. So when
// commit(p) runs, every later event sharing a key with p is still
// unstarted unless exec(p) returned while an earlier exec was pending.
//
// A panic in exec or commit stops the batch: Run waits for the calls in
// flight, then panics with the same value on the calling goroutine.
func (s *Scheduler) Run(n, workers int, keys func(i int) (a, b int64), exec, commit func(i int)) int {
	depth := s.link(n, keys)
	s.exec, s.commit = exec, commit
	s.executed, s.committed, s.failure = 0, 0, nil
	s.wake.L = &s.mu
	helpers := min(workers, n) - 1
	var wg sync.WaitGroup
	wg.Add(max(helpers, 0))
	for range helpers {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	s.work()
	wg.Wait()
	s.exec, s.commit = nil, nil
	if s.failure != nil {
		panic(s.failure)
	}
	return depth
}

// link builds the chains of events 0..n-1 and marks the chain heads
// free. It returns the longest chain.
func (s *Scheduler) link(n int, keys func(i int) (a, b int64)) int {
	if s.last == nil {
		s.last = make(map[int64]int32, 2*n)
	} else {
		clear(s.last)
	}
	if cap(s.nodes) < n {
		s.nodes = make([]node, n)
	}
	s.nodes = s.nodes[:n]
	words := (n + 63) / 64
	if cap(s.ready) < words {
		s.ready = make([]uint64, words)
	}
	s.ready = s.ready[:words]
	clear(s.ready)
	longest := 0
	for i := range n {
		s.nodes[i] = node{succ: [2]int32{-1, -1}, depth: 1}
		a, b := keys(i)
		s.after(i, a)
		if b != a {
			s.after(i, b)
		}
		if s.nodes[i].wait == 0 {
			s.free(i)
		}
		longest = max(longest, int(s.nodes[i].depth))
	}
	return longest
}

// after links event i behind the latest earlier event on key k. An
// event keeps at most one successor per key, so two slots suffice.
func (s *Scheduler) after(i int, k int64) {
	p, ok := s.last[k]
	s.last[k] = int32(i)
	if !ok {
		return
	}
	pn, nd := &s.nodes[p], &s.nodes[i]
	if pn.succ[0] == int32(i) || pn.succ[1] == int32(i) {
		return // p shares both keys with i
	}
	if pn.succ[0] < 0 {
		pn.succ[0] = int32(i)
	} else {
		pn.succ[1] = int32(i)
	}
	nd.wait++
	nd.depth = max(nd.depth, pn.depth+1)
}

// work is one goroutine's loop: commit while the executed prefix runs
// ahead of the commits and nobody else is committing, else exec the
// lowest free event, else sleep.
func (s *Scheduler) work() {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.failure == nil {
				s.failure = r
			}
			s.wake.Broadcast()
			s.mu.Unlock()
		}
	}()
	s.mu.Lock()
	for s.failure == nil && s.committed < len(s.nodes) {
		if !s.committing && s.committed < s.executed {
			s.committing = true
			for s.failure == nil && s.committed < s.executed {
				i := s.committed
				s.mu.Unlock()
				s.commit(i)
				s.mu.Lock()
				s.committed++
				if s.nodes[i].hold {
					s.release(i)
				}
			}
			s.committing = false
			if s.committed == len(s.nodes) {
				s.wake.Broadcast()
			}
			continue
		}
		if i := s.take(); i >= 0 {
			s.mu.Unlock()
			s.exec(i)
			s.mu.Lock()
			s.finish(i)
			continue
		}
		s.wake.Wait()
	}
	s.mu.Unlock()
}

// finish records that exec(i) returned. If that extends the executed
// prefix, i's successors wait for its commit; otherwise they go free.
func (s *Scheduler) finish(i int) {
	s.nodes[i].done = true
	if i != s.executed {
		s.release(i)
		return
	}
	s.nodes[i].hold = true
	for s.executed < len(s.nodes) && s.nodes[s.executed].done {
		s.executed++
	}
}

// release frees i's successors whose last pending predecessor is i.
func (s *Scheduler) release(i int) {
	for _, j := range s.nodes[i].succ {
		if j < 0 {
			continue
		}
		s.nodes[j].wait--
		if s.nodes[j].wait == 0 {
			s.free(int(j))
			s.wake.Signal()
		}
	}
}

func (s *Scheduler) free(i int) { s.ready[i/64] |= 1 << (i % 64) }

// take removes and returns the lowest free event, or -1.
func (s *Scheduler) take() int {
	for w, word := range s.ready {
		if word != 0 {
			b := bits.TrailingZeros64(word)
			s.ready[w] = word &^ (1 << b)
			return w*64 + b
		}
	}
	return -1
}
