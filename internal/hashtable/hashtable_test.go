package hashtable

import (
	"testing"
	"testing/quick"

	"dqo/internal/xrand"
)

func TestFuncNamesAndCoverage(t *testing.T) {
	if len(Funcs()) != int(numFuncs) {
		t.Fatalf("Funcs() lists %d functions, want %d", len(Funcs()), numFuncs)
	}
	seen := map[string]bool{}
	for _, f := range Funcs() {
		name := f.String()
		if seen[name] {
			t.Fatalf("duplicate hash function name %q", name)
		}
		seen[name] = true
	}
}

func TestHashDeterministic(t *testing.T) {
	for _, f := range Funcs() {
		if f.Hash(12345) != f.Hash(12345) {
			t.Fatalf("%s not deterministic", f)
		}
	}
}

func TestIdentityHash(t *testing.T) {
	if Identity.Hash(77) != 77 {
		t.Fatal("identity hash is not the identity")
	}
}

func TestHashLowBitsSpread(t *testing.T) {
	// All non-identity functions must spread sequential keys across low bits
	// (they are masked into power-of-two bucket directories).
	for _, f := range []Func{Murmur3Fin, Fibonacci, MultiplyShift} {
		var buckets [64]int
		for k := uint32(0); k < 6400; k++ {
			buckets[f.Hash(k)&63]++
		}
		for b, c := range buckets {
			if c == 0 {
				t.Fatalf("%s: bucket %d empty for sequential keys", f, b)
			}
			if c > 400 { // 4x the fair share of 100
				t.Fatalf("%s: bucket %d has %d of 6400 sequential keys", f, b, c)
			}
		}
	}
}

func TestAggStateAddAndMerge(t *testing.T) {
	var a AggState
	for _, v := range []int64{5, -3, 7} {
		a.add(v)
	}
	if a.Count != 3 || a.Sum != 9 || a.Min != -3 || a.Max != 7 {
		t.Fatalf("state wrong: %+v", a)
	}
	var b AggState
	b.add(100)
	a.Merge(b)
	if a.Count != 4 || a.Sum != 109 || a.Max != 100 || a.Min != -3 {
		t.Fatalf("merged state wrong: %+v", a)
	}
	var empty AggState
	a.Merge(empty)
	if a.Count != 4 {
		t.Fatal("merging empty changed state")
	}
	empty.Merge(a)
	if empty != a {
		t.Fatal("merge into empty did not copy")
	}
}

// refAgg is the trivially correct reference aggregation.
func refAgg(keys []uint32, vals []int64) map[uint32]AggState {
	ref := map[uint32]AggState{}
	for i, k := range keys {
		st := ref[k]
		st.add(vals[i])
		ref[k] = st
	}
	return ref
}

func collect(tab AggTable) map[uint32]AggState {
	got := map[uint32]AggState{}
	tab.ForEach(func(k uint32, st AggState) {
		if _, dup := got[k]; dup {
			panic("ForEach visited a key twice")
		}
		got[k] = st
	})
	return got
}

func TestAggTablesMatchReference(t *testing.T) {
	r := xrand.New(1)
	const n = 20000
	keys := make([]uint32, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = r.Uint32n(500)
		vals[i] = r.Int63() % 1000
	}
	ref := refAgg(keys, vals)
	for _, s := range Schemes() {
		for _, f := range Funcs() {
			tab := NewAgg(s, f, 0)
			for i, k := range keys {
				tab.Add(k, vals[i])
			}
			if tab.Len() != len(ref) {
				t.Fatalf("%s/%s: Len = %d, want %d", s, f, tab.Len(), len(ref))
			}
			got := collect(tab)
			for k, want := range ref {
				if got[k] != want {
					t.Fatalf("%s/%s: key %d = %+v, want %+v", s, f, k, got[k], want)
				}
			}
		}
	}
}

func TestAggTablesQuick(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		f := func(keys []uint32, seed uint64) bool {
			r := xrand.New(seed)
			vals := make([]int64, len(keys))
			for i := range keys {
				keys[i] %= 97 // force collisions and repeats
				vals[i] = r.Int63() % 100
			}
			tab := NewAgg(s, Murmur3Fin, 0)
			for i, k := range keys {
				tab.Add(k, vals[i])
			}
			ref := refAgg(keys, vals)
			if tab.Len() != len(ref) {
				return false
			}
			got := collect(tab)
			for k, want := range ref {
				if got[k] != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestAggTableGrowth(t *testing.T) {
	// Insert far more distinct keys than the initial capacity to force
	// repeated growth in all schemes.
	for _, s := range Schemes() {
		tab := NewAgg(s, Fibonacci, 4)
		const n = 50000
		for k := uint32(0); k < n; k++ {
			tab.Add(k, int64(k))
		}
		if tab.Len() != n {
			t.Fatalf("%s: Len = %d after growth, want %d", s, tab.Len(), n)
		}
		got := collect(tab)
		for k := uint32(0); k < n; k += 997 {
			st := got[k]
			if st.Count != 1 || st.Sum != int64(k) {
				t.Fatalf("%s: key %d lost during growth: %+v", s, k, st)
			}
		}
	}
}

func TestAggTableIdentityHashAdversarial(t *testing.T) {
	// Keys that all collide under identity&mask must still be correct (just
	// slow) — correctness may not depend on hash quality.
	for _, s := range Schemes() {
		tab := NewAgg(s, Identity, 0)
		const stride = 1 << 20
		for i := 0; i < 300; i++ {
			tab.Add(uint32(i*stride), 1)
		}
		if tab.Len() != 300 {
			t.Fatalf("%s: adversarial identity keys lost: %d", s, tab.Len())
		}
	}
}

func TestChainedForEachInsertionOrder(t *testing.T) {
	tab := NewAgg(Chained, Murmur3Fin, 0)
	keys := []uint32{42, 7, 99, 7, 13}
	for _, k := range keys {
		tab.Add(k, 1)
	}
	var order []uint32
	tab.ForEach(func(k uint32, _ AggState) { order = append(order, k) })
	want := []uint32{42, 7, 99, 13}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want first-seen %v", order, want)
		}
	}
}

func BenchmarkAggAdd(b *testing.B) {
	r := xrand.New(2)
	const n = 1 << 16
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32n(1024)
	}
	for _, s := range Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			tab := NewAgg(s, Murmur3Fin, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Add(keys[i&(n-1)], 1)
			}
		})
	}
}
