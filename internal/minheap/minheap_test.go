package minheap

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPopsInOrder: under interleaved pushes and pops, every pop
// returns the least item held, as a sorted reference says.
func TestPopsInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := Heap[int]{Less: func(a, b int) bool { return a < b }}
	for range 50 {
		h.Items = append(h.Items, r.Intn(1000))
	}
	h.Init()
	ref := slices.Clone(h.Items)
	for range 2000 {
		if r.Intn(3) > 0 || h.Len() == 0 {
			x := r.Intn(1000)
			h.Push(x)
			ref = append(ref, x)
			continue
		}
		slices.Sort(ref)
		if got := h.Pop(); got != ref[0] {
			t.Fatalf("Pop = %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if h.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(ref))
	}
}

// TestPopZeroesSlot: Pop clears the slot it vacates, so a popped
// pointer is not kept alive by the backing array.
func TestPopZeroesSlot(t *testing.T) {
	h := Heap[*int]{Less: func(a, b *int) bool { return *a < *b }}
	for i := range 4 {
		h.Push(&i)
	}
	for h.Len() > 0 {
		n := h.Len() - 1
		h.Pop()
		if p := h.Items[:n+1][n]; p != nil {
			t.Fatalf("slot %d still holds %d after Pop", n, *p)
		}
	}
}
