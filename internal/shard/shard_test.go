package shard

import (
	"math/rand"
	"sync"
	"testing"
)

// item is a two-key workload element for partition tests.
type item struct{ a, b int64 }

func keysOf(items []item) func(int) (int64, int64) {
	return func(i int) (int64, int64) { return items[i].a, items[i].b }
}

// checkPartition asserts the three wave invariants: every index appears
// exactly once, no two members of one wave share a key, and conflicting
// items keep index order across waves.
func checkPartition(t *testing.T, items []item, waves [][]int) {
	t.Helper()
	seen := make(map[int]bool, len(items))
	rank := make(map[int]int, len(items)) // index -> wave
	for w, wave := range waves {
		keys := map[int64]bool{}
		for _, i := range wave {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
			rank[i] = w
			if keys[items[i].a] || keys[items[i].b] {
				t.Fatalf("wave %d has conflicting members (index %d, keys %d/%d)",
					w, i, items[i].a, items[i].b)
			}
			keys[items[i].a] = true
			keys[items[i].b] = true
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("partition covers %d of %d items", len(seen), len(items))
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if conflicts(items[i], items[j]) && rank[i] >= rank[j] {
				t.Fatalf("conflicting items %d and %d ordered %d >= %d",
					i, j, rank[i], rank[j])
			}
		}
	}
}

func conflicts(x, y item) bool {
	return x.a == y.a || x.a == y.b || x.b == y.a || x.b == y.b
}

func TestPlanDisjointSingleWave(t *testing.T) {
	items := []item{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	var p Planner
	waves := p.Plan(len(items), keysOf(items))
	if len(waves) != 1 || len(waves[0]) != 4 {
		t.Fatalf("disjoint items want one wave of 4, got %v", waves)
	}
	checkPartition(t, items, waves)
}

func TestPlanChainFullySerial(t *testing.T) {
	// The same pair repeated must execute strictly in order.
	items := []item{{1, 2}, {1, 2}, {1, 2}}
	var p Planner
	waves := p.Plan(len(items), keysOf(items))
	if len(waves) != 3 {
		t.Fatalf("repeated pair wants 3 waves, got %d", len(waves))
	}
	checkPartition(t, items, waves)
}

func TestPlanSharedEndpointOrdering(t *testing.T) {
	// (1,2) and (2,3) share node 2; (4,5) is independent.
	items := []item{{1, 2}, {2, 3}, {4, 5}}
	var p Planner
	waves := p.Plan(len(items), keysOf(items))
	checkPartition(t, items, waves)
	if len(waves) != 2 {
		t.Fatalf("want 2 waves, got %d", len(waves))
	}
	if len(waves[0]) != 2 { // {1,2} and {4,5}
		t.Fatalf("wave 0 want 2 members, got %v", waves[0])
	}
}

func TestPlanRandomizedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var p Planner // reused across rounds: buffer reuse must not leak state
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(200)
		items := make([]item, n)
		for i := range items {
			items[i] = item{int64(r.Intn(30)), int64(r.Intn(30))}
		}
		checkPartition(t, items, p.Plan(n, keysOf(items)))
	}
}

func TestPlanDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	items := make([]item, 300)
	for i := range items {
		items[i] = item{int64(r.Intn(40)), int64(r.Intn(40))}
	}
	var p1, p2 Planner
	w1 := p1.Plan(len(items), keysOf(items))
	w2 := p2.Plan(len(items), keysOf(items))
	if len(w1) != len(w2) {
		t.Fatalf("wave counts differ: %d vs %d", len(w1), len(w2))
	}
	for w := range w1 {
		if len(w1[w]) != len(w2[w]) {
			t.Fatalf("wave %d sizes differ", w)
		}
		for i := range w1[w] {
			if w1[w][i] != w2[w][i] {
				t.Fatalf("wave %d member %d differs", w, i)
			}
		}
	}
}

// TestRunAllExecutedOnce drives Run with several worker counts and
// verifies each index executes exactly once, with conflicting indices
// strictly ordered (the -race build additionally proves wave members
// never touch shared per-key state concurrently).
func TestRunAllExecutedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := make([]item, 500)
	for i := range items {
		items[i] = item{int64(r.Intn(25)), int64(r.Intn(25))}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var p Planner
		waves := p.Plan(len(items), keysOf(items))
		counts := make([]int, len(items))
		var mu sync.Mutex
		// perKey is written without synchronization by design: if two
		// concurrent wave members shared a key, -race would flag it. It
		// is a slice indexed by key (keys are < 25), not a map: distinct
		// elements are race-free, while concurrent writes to distinct map
		// keys still crash the runtime.
		perKey := make([]int, 25)
		Run(waves, workers, func(i int) {
			perKey[items[i].a]++
			perKey[items[i].b]++
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

// TestRunWaveBarrier asserts no member of wave w+1 starts before every
// member of wave w finished.
func TestRunWaveBarrier(t *testing.T) {
	items := []item{{1, 2}, {3, 4}, {1, 3}} // third conflicts with both
	var p Planner
	waves := p.Plan(len(items), keysOf(items))
	if len(waves) != 2 {
		t.Fatalf("want 2 waves, got %d", len(waves))
	}
	var mu sync.Mutex
	var done []int
	Run(waves, 4, func(i int) {
		mu.Lock()
		done = append(done, i)
		mu.Unlock()
	})
	if len(done) != 3 || done[2] != 2 {
		t.Fatalf("wave-2 member must finish last, got order %v", done)
	}
}
