package pq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedMinHeapBasic(t *testing.T) {
	h := NewIndexedMinHeap(10)
	if h.Len() != 0 {
		t.Fatalf("new heap Len = %d, want 0", h.Len())
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(2, 3.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if !h.Contains(7) || h.Contains(4) {
		t.Fatal("Contains wrong")
	}
	v, k := h.Pop()
	if v != 7 || k != 1.0 {
		t.Fatalf("Pop = (%d, %v), want (7, 1)", v, k)
	}
	v, k = h.Pop()
	if v != 2 || k != 3.0 {
		t.Fatalf("Pop = (%d, %v), want (2, 3)", v, k)
	}
	v, k = h.Pop()
	if v != 3 || k != 5.0 {
		t.Fatalf("Pop = (%d, %v), want (3, 5)", v, k)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestIndexedMinHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	if got := h.Key(2); got != 5 {
		t.Fatalf("Key(2) = %v, want 5", got)
	}
	v, _ := h.Pop()
	if v != 2 {
		t.Fatalf("Pop = %d, want 2", v)
	}
	// Increasing key must be a no-op.
	h.DecreaseKey(1, 100)
	if got := h.Key(1); got != 20 {
		t.Fatalf("Key(1) = %v after bogus decrease, want 20", got)
	}
	// DecreaseKey on an absent item must be a no-op.
	h.DecreaseKey(4, 1)
	if h.Contains(4) {
		t.Fatal("DecreaseKey inserted absent item")
	}
}

func TestIndexedMinHeapPushDuplicate(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(1, 10)
	h.Push(1, 4) // acts as DecreaseKey
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	if h.Key(1) != 4 {
		t.Fatalf("Key = %v, want 4", h.Key(1))
	}
	h.Push(1, 99) // larger key: no-op
	if h.Key(1) != 4 {
		t.Fatalf("Key = %v after larger push, want 4", h.Key(1))
	}
}

func TestIndexedMinHeapReset(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.Push(0, 1)
	h.Push(3, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(3) {
		t.Fatal("Reset did not clear the heap")
	}
	h.Push(3, 7)
	if v, k := h.Pop(); v != 3 || k != 7 {
		t.Fatalf("Pop after Reset = (%d,%v), want (3,7)", v, k)
	}
}

// heapSortVia drains the heap and checks the output is sorted and a
// permutation of the input keys.
func heapSortVia(t *testing.T, push func(int, float64), pop func() (int, float64), length func() int, keys []float64) {
	t.Helper()
	for i, k := range keys {
		push(i, k)
	}
	got := make([]float64, 0, len(keys))
	for length() > 0 {
		_, k := pop()
		got = append(got, k)
	}
	if len(got) != len(keys) {
		t.Fatalf("drained %d items, want %d", len(got), len(keys))
	}
	want := append([]float64(nil), keys...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order wrong at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIndexedMinHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
		}
		h := NewIndexedMinHeap(n)
		heapSortVia(t, h.Push, h.Pop, h.Len, keys)
	}
}

func TestPairingHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
		}
		h := NewPairingHeap(n)
		heapSortVia(t, h.Push, h.Pop, h.Len, keys)
	}
}

func TestPairingHeapDecreaseKey(t *testing.T) {
	h := NewPairingHeap(6)
	for i := 0; i < 6; i++ {
		h.Push(i, float64(10+i))
	}
	h.DecreaseKey(5, 1)
	h.DecreaseKey(3, 2)
	v, k := h.Pop()
	if v != 5 || k != 1 {
		t.Fatalf("Pop = (%d,%v), want (5,1)", v, k)
	}
	v, k = h.Pop()
	if v != 3 || k != 2 {
		t.Fatalf("Pop = (%d,%v), want (3,2)", v, k)
	}
	v, _ = h.Pop()
	if v != 0 {
		t.Fatalf("Pop = %d, want 0", v)
	}
}

func TestPairingHeapPushDuplicateAndAbsentDecrease(t *testing.T) {
	h := NewPairingHeap(4)
	h.Push(2, 9)
	h.Push(2, 3)
	if h.Len() != 1 || h.Key(2) != 3 {
		t.Fatalf("duplicate push: Len=%d Key=%v, want 1, 3", h.Len(), h.Key(2))
	}
	h.DecreaseKey(1, 0.5)
	if h.Contains(1) {
		t.Fatal("DecreaseKey inserted absent item")
	}
}

// TestHeapsAgree cross-checks the 4-ary indexed heap against the pairing
// heap reference under random mixed workloads of pushes (fresh and of items
// already present), decrease-keys, pops and resets. The continuous-key
// round makes ties a measure-zero event, so both heaps must pop the same
// (item, key) pair at every step; the integer-key rounds are full of
// duplicate keys, where the heaps may pop tied items in different orders,
// so every pop is instead checked against a model of the live items: the
// key must be the model's minimum and must be the popped item's own key.
func TestHeapsAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		key    func(rng *rand.Rand) float64
		strict bool
	}{
		{"continuous", 3, func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }, true},
		{"duplicates", 4, func(rng *rand.Rand) float64 { return float64(rng.Intn(8)) }, false},
		{"wide-duplicates", 5, func(rng *rand.Rand) float64 { return float64(rng.Intn(40)) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := heapsAgree(rand.New(rand.NewSource(tc.seed)), 64, 20000, tc.key, tc.strict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// heapsAgree drives one IndexedMinHeap and a PairingHeap reference through
// the same random operation sequence and reports the first disagreement;
// see TestHeapsAgree.
func heapsAgree(rng *rand.Rand, n, steps int, key func(*rand.Rand) float64, strict bool) error {
	a := NewIndexedMinHeap(n)
	b := NewPairingHeap(n)
	model := make(map[int]float64)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op == 9 && rng.Intn(20) == 0:
			// Reuse after Reset: the indexed heap keeps its storage, the
			// reference is rebuilt from scratch.
			a.Reset()
			b = NewPairingHeap(n)
			clear(model)
		case op < 4 || a.Len() == 0:
			// Push, of an absent item or of one already present (then
			// a decrease-key when smaller, a no-op otherwise).
			v, k := rng.Intn(n), key(rng)
			a.Push(v, k)
			b.Push(v, k)
			if old, ok := model[v]; !ok || k < old {
				model[v] = k
			}
		case op < 7:
			v := rng.Intn(n)
			k := key(rng)
			if a.Contains(v) && rng.Intn(2) == 0 {
				k = a.Key(v) - float64(rng.Intn(3)) // equal keys are no-ops too
			}
			a.DecreaseKey(v, k)
			b.DecreaseKey(v, k)
			if old, ok := model[v]; ok && k < old {
				model[v] = k
			}
		default:
			va, ka := a.Pop()
			vb, kb := b.Pop()
			if ka != kb {
				return fmt.Errorf("step %d: popped keys %v vs %v", step, ka, kb)
			}
			if strict && va != vb {
				return fmt.Errorf("step %d: popped (%d,%v) vs (%d,%v)", step, va, ka, vb, kb)
			}
			if mk, ok := model[va]; !ok || mk != ka {
				return fmt.Errorf("step %d: indexed heap popped (%d,%v), model key %v present %v", step, va, ka, mk, ok)
			}
			for v, k := range model {
				if k < ka {
					return fmt.Errorf("step %d: popped key %v but item %d holds %v", step, ka, v, k)
				}
			}
			delete(model, va)
			if !strict && va != vb {
				// Keep the reference in step: it popped a different tied
				// item, so put vb back and take va out instead.
				b.Push(vb, kb)
				if err := removePairing(b, va, ka); err != nil {
					return fmt.Errorf("step %d: %v", step, err)
				}
			}
		}
		if a.Len() != b.Len() || a.Len() != len(model) {
			return fmt.Errorf("step %d: Len mismatch %d vs %d vs model %d", step, a.Len(), b.Len(), len(model))
		}
		for v, k := range model {
			if !a.Contains(v) || a.Key(v) != k || !b.Contains(v) || b.Key(v) != k {
				return fmt.Errorf("step %d: item %d: model key %v, indexed %v/%v", step, v, k, a.Contains(v), b.Contains(v))
			}
		}
	}
	return nil
}

// removePairing removes item v (key k, tied with the heap minimum) from the
// pairing heap by popping tied items until v comes out and pushing the
// others back.
func removePairing(b *PairingHeap, v int, k float64) error {
	var back []int
	for {
		u, ku := b.Pop()
		if ku != k {
			return fmt.Errorf("reference lost tied item %d: popped (%d,%v)", v, u, ku)
		}
		if u == v {
			break
		}
		back = append(back, u)
	}
	for _, u := range back {
		b.Push(u, k)
	}
	return nil
}

func TestIndexedMinHeapQuickProperty(t *testing.T) {
	// Property: draining the heap yields keys in non-decreasing order.
	f := func(keys []float64) bool {
		if len(keys) == 0 {
			return true
		}
		if len(keys) > 512 {
			keys = keys[:512]
		}
		for i, k := range keys {
			if k != k { // NaN keys are out of contract
				keys[i] = 0
			}
		}
		h := NewIndexedMinHeap(len(keys))
		for i, k := range keys {
			h.Push(i, k)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	// Property: any sequence of pushes (fresh or repeated items),
	// decrease-keys, pops and resets over small integer keys keeps the
	// heap equal to the pairing-heap reference in length, membership and
	// keys, and every pop returns a live item holding the minimum key.
	ops := func(seed int64, width uint8) bool {
		span := 1 + int(width%16)
		err := heapsAgree(rand.New(rand.NewSource(seed)), 16, 400, func(r *rand.Rand) float64 { return float64(r.Intn(span)) }, false)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(ops, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
