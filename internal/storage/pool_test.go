package storage

import (
	"sync"
	"testing"
)

// TestInt32PoolSizeClasses: a request is served with at least the capacity it
// asked for, and a buffer only ever serves requests of its own size class —
// a join's row-id array is not handed to a morsel's selection vector, where
// the next join would not find it, and comes back to the next join whole.
func TestInt32PoolSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 300000, 1 << 20} {
		buf := GetInt32s(n)
		if len(buf) != 0 || cap(buf) < n {
			t.Fatalf("GetInt32s(%d): len %d cap %d", n, len(buf), cap(buf))
		}
		PutInt32s(buf)
	}
	for i := 0; i < 100; i++ {
		PutInt32s(make([]int32, 0, 900000/4)) // a join's pair array, not a power of two
		if buf := GetInt32s(4096); cap(buf) >= 8192 {
			t.Fatalf("a %d-entry buffer was handed to a selection vector", cap(buf))
		}
		if buf := GetInt32s(200000); cap(buf) < 200000 || cap(buf) > 225000 {
			t.Fatalf("GetInt32s(200000) returned capacity %d", cap(buf))
		}
	}
	PutInt32s(nil)
	PutInt32s(make([]int32, 0, 8)) // below the smallest class: dropped
}

// TestScratchKeepsWhatTheResultViews draws from one arena on several
// goroutines at once, recycles it keeping a relation that views part of one
// array, and then lets another arena draw and overwrite as many arrays of
// that size again: the viewed array must come back to nobody. A nil arena
// draws zeroed arrays of its own.
func TestScratchKeepsWhatTheResultViews(t *testing.T) {
	const workers, n = 8, 3000
	s := NewScratch()
	arrays := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := range arrays {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := s.Uint32s(n)
			for i := range a {
				a[i] = uint32(w*n + i)
			}
			arrays[w] = a
			s.Int64s(n) // an array of another kind, recycled
		}(w)
	}
	wg.Wait()
	kept := arrays[3]
	keep := MustNewRelation("result", NewUint32("x", kept[10:20]))
	s.Recycle(keep)
	for round := 0; round < 4; round++ {
		s2 := NewScratch()
		for i := 0; i < 2*workers; i++ {
			a := s2.Uint32s(n)
			for j := range a {
				a[j] = ^uint32(0)
			}
		}
		s2.Recycle(nil)
	}
	for i, v := range kept {
		if v != uint32(3*n+i) {
			t.Fatalf("kept array overwritten at %d: %d", i, v)
		}
	}
	var none *Scratch
	if a := none.Float64s(5); len(a) != 5 || a[0] != 0 || a[4] != 0 {
		t.Fatalf("nil arena drew %v", a)
	}
	none.Recycle(nil)
}
