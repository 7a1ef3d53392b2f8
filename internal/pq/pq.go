// Package pq provides indexed priority queues used by the shortest-path and
// minimum-spanning-tree algorithms in this repository.
//
// The central type is IndexedMinHeap, a 4-ary min-heap keyed by float64
// priorities over a dense universe of integer items [0, n). It supports the
// DecreaseKey operation required by Dijkstra's and Prim's algorithms in
// O(log n) time, and O(1) membership and priority lookup.
package pq

// arity is the heap's branching factor. A 4-ary heap is half as deep as a
// binary one, so DecreaseKey (the common operation in Dijkstra) moves an
// item half as many levels, and the four children a sift-down compares
// share one cache line of keys.
const arity = 4

// IndexedMinHeap is a 4-ary min-heap over items 0..n-1 with float64 keys.
// Each item may appear at most once. The zero value is not usable; construct
// with NewIndexedMinHeap.
type IndexedMinHeap struct {
	// keys[i] and items[i] are the priority and the item stored at heap
	// position i: keys live inline in heap order, so sifts compare
	// contiguous memory instead of chasing item ids into a key array.
	keys  []float64
	items []int32
	// pos[v] is the heap position of item v, or -1 if v is not in the heap.
	pos []int32
}

// NewIndexedMinHeap returns an empty heap over the universe [0, n).
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		keys:  make([]float64, 0, n),
		items: make([]int32, 0, n),
		pos:   make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.items) }

// Contains reports whether item v is currently in the heap.
func (h *IndexedMinHeap) Contains(v int) bool { return h.pos[v] >= 0 }

// Key returns the current priority of item v. It must only be called when
// Contains(v) is true.
func (h *IndexedMinHeap) Key(v int) float64 { return h.keys[h.pos[v]] }

// Push inserts item v with priority k. If v is already present, Push behaves
// like DecreaseKey when k is smaller than the current key and is a no-op
// otherwise.
func (h *IndexedMinHeap) Push(v int, k float64) {
	if p := h.pos[v]; p >= 0 {
		if k < h.keys[p] {
			h.siftUp(int(p), int32(v), k)
		}
		return
	}
	h.keys = append(h.keys, k)
	h.items = append(h.items, int32(v))
	h.siftUp(len(h.items)-1, int32(v), k)
}

// DecreaseKey lowers the priority of item v to k. It is a no-op if v is not
// in the heap or k is not smaller than the current key.
func (h *IndexedMinHeap) DecreaseKey(v int, k float64) {
	p := h.pos[v]
	if p < 0 || k >= h.keys[p] {
		return
	}
	h.siftUp(int(p), int32(v), k)
}

// Peek returns the item with the minimum key and that key without removing
// it. It must not be called on an empty heap.
func (h *IndexedMinHeap) Peek() (v int, k float64) {
	return int(h.items[0]), h.keys[0]
}

// Pop removes and returns the item with the minimum key along with that key.
// It must not be called on an empty heap (Len() == 0); doing so panics, which
// indicates a programming error in the caller.
func (h *IndexedMinHeap) Pop() (v int, k float64) {
	top, k := h.items[0], h.keys[0]
	h.pos[top] = -1
	last := len(h.items) - 1
	lv, lk := h.items[last], h.keys[last]
	h.items = h.items[:last]
	h.keys = h.keys[:last]
	if last > 0 {
		h.siftDown(0, lv, lk)
	}
	return int(top), k
}

// Reset empties the heap without releasing its backing storage, allowing it
// to be reused across repeated runs over the same universe.
func (h *IndexedMinHeap) Reset() {
	for _, v := range h.items {
		h.pos[v] = -1
	}
	h.items = h.items[:0]
	h.keys = h.keys[:0]
}

// siftUp places item v with key k at the hole i or above it, moving
// larger-keyed ancestors down one level each.
func (h *IndexedMinHeap) siftUp(i int, v int32, k float64) {
	for i > 0 {
		parent := (i - 1) / arity
		if h.keys[parent] <= k {
			break
		}
		h.move(i, parent)
		i = parent
	}
	h.put(i, v, k)
}

// siftDown places item v with key k at the hole i or below it, moving the
// smallest child up while it is smaller than k.
func (h *IndexedMinHeap) siftDown(i int, v int32, k float64) {
	n := len(h.keys)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		best, bk := first, h.keys[first]
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.keys[c] < bk {
				best, bk = c, h.keys[c]
			}
		}
		if bk >= k {
			break
		}
		h.move(i, best)
		i = best
	}
	h.put(i, v, k)
}

// move copies the entry at heap position from into position to.
func (h *IndexedMinHeap) move(to, from int) {
	v := h.items[from]
	h.items[to], h.keys[to] = v, h.keys[from]
	h.pos[v] = int32(to)
}

func (h *IndexedMinHeap) put(i int, v int32, k float64) {
	h.items[i], h.keys[i] = v, k
	h.pos[v] = int32(i)
}
