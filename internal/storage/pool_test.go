package storage

import "testing"

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
	PutInt32s(make([]int32, 0, 16)) // below the smallest class: dropped
}
