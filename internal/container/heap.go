// Package container provides the small generic data structures shared by
// the substrates: a binary min-heap, a disjoint-set forest (union–find),
// and a max segment tree with range addition (used by the MaxRS baseline).
package container

// Heap is a binary min-heap ordered by the provided less function.
// The zero value is not usable; construct with NewHeap, or embed a Heap
// value in pooled scratch state and call Init once before first use.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Init prepares a zero-value (typically embedded) heap: it installs the
// ordering and empties the heap, keeping any backing storage. Calling Init
// on an already-initialized heap is equivalent to Reset with a new order.
func (h *Heap[T]) Init(less func(a, b T) bool) {
	h.less = less
	h.Reset()
}

// Reset empties the heap while keeping its backing storage, so a pooled
// heap can serve many rounds without reallocating. Elements are zeroed to
// release any references they hold.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

// Push inserts v into the heap.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element.
// The second return is false when the heap is empty.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	n := len(h.items)
	if n == 0 {
		return zero, false
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = zero
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top, true
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
