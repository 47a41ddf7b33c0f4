// Package minheap is a binary min-heap over a slice of values. It is
// container/heap's algorithm with the element type fixed, so a push or
// pop moves a value and never boxes one in an interface allocation.
package minheap

// Heap orders Items by Less. With a strict total order, the sequence
// of pops is the sorted order whatever the history of pushes, so it is
// independent of the heap's internal layout.
type Heap[T any] struct {
	Items []T
	Less  func(a, b T) bool
}

// Init establishes the heap order over Items in O(n).
func (h *Heap[T]) Init() {
	n := len(h.Items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// Len returns the number of items.
func (h *Heap[T]) Len() int { return len(h.Items) }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.Items = append(h.Items, x)
	h.up(len(h.Items) - 1)
}

// Pop removes and returns the least item. The heap must not be empty.
// The vacated slot is zeroed, so the backing array keeps nothing a
// popped item points to reachable.
func (h *Heap[T]) Pop() T {
	n := len(h.Items) - 1
	h.Items[0], h.Items[n] = h.Items[n], h.Items[0]
	h.down(0, n)
	x := h.Items[n]
	var zero T
	h.Items[n] = zero
	h.Items = h.Items[:n]
	return x
}

func (h *Heap[T]) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.Less(h.Items[j], h.Items[i]) {
			break
		}
		h.Items[i], h.Items[j] = h.Items[j], h.Items[i]
		j = i
	}
}

func (h *Heap[T]) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.Less(h.Items[r], h.Items[j]) {
			j = r
		}
		if !h.Less(h.Items[j], h.Items[i]) {
			return
		}
		h.Items[i], h.Items[j] = h.Items[j], h.Items[i]
		i = j
	}
}
