package hashtable

import (
	"slices"
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

// resolveAll resolves keys through tab in windows of step keys.
func resolveAll(tab GroupTable, keys []uint32, step int) []int32 {
	ids := make([]int32, len(keys))
	for lo := 0; lo < len(keys); lo += step {
		hi := min(lo+step, len(keys))
		tab.Resolve(keys[lo:hi], ids[lo:hi])
	}
	return ids
}

// checkDirectory checks the GroupTable contract against the trivially
// correct reference: ids are dense and handed out in first-seen order, and
// Groups lists every group exactly once under its id.
func checkDirectory(t *testing.T, label string, tab GroupTable, keys []uint32, ids []int32) {
	t.Helper()
	ref := map[uint32]int32{}
	for i, k := range keys {
		want, seen := ref[k]
		if !seen {
			want = int32(len(ref))
			ref[k] = want
		}
		if ids[i] != want {
			t.Fatalf("%s: row %d key %d resolved to id %d, want %d", label, i, k, ids[i], want)
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", label, tab.Len(), len(ref))
	}
	gkeys, gids := tab.Groups()
	if len(gkeys) != len(ref) || (gids != nil && len(gids) != len(ref)) {
		t.Fatalf("%s: Groups lists %d keys / %d ids, want %d", label, len(gkeys), len(gids), len(ref))
	}
	seen := map[uint32]bool{}
	for i, k := range gkeys {
		id := int32(i)
		if gids != nil {
			id = gids[i]
		}
		if want, ok := ref[k]; !ok || seen[k] || id != want {
			t.Fatalf("%s: Groups entry %d = (key %d, id %d), want id %d once", label, i, k, id, want)
		}
		seen[k] = true
	}
}

func TestGroupTablesMatchReference(t *testing.T) {
	r := xrand.New(1)
	const n = 20000
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32n(500)
	}
	for _, s := range Schemes() {
		for _, f := range Funcs() {
			tab := NewGroupTable(s, f, 0)
			if tab.Scheme() != s {
				t.Fatalf("%s: Scheme = %s", s, tab.Scheme())
			}
			checkDirectory(t, s.String()+"/"+f.String(), tab, keys, resolveAll(tab, keys, n))
		}
	}
}

func TestGroupTablesQuick(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		f := func(keys []uint32) bool {
			for i := range keys {
				keys[i] %= 97 // force collisions and repeats
			}
			tab := NewGroupTable(s, Murmur3Fin, 0)
			ids := resolveAll(tab, keys, 7)
			ref := map[uint32]int32{}
			for i, k := range keys {
				if _, ok := ref[k]; !ok {
					ref[k] = int32(len(ref))
				}
				if ids[i] != ref[k] {
					return false
				}
			}
			return tab.Len() == len(ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestGroupTableGrowth(t *testing.T) {
	// Resolve far more distinct keys than the initial capacity to force
	// repeated growth in all schemes; every group keeps its id through it.
	for _, s := range Schemes() {
		tab := NewGroupTable(s, Fibonacci, 4)
		const n = 50000
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(i) * 3
		}
		checkDirectory(t, s.String(), tab, keys, resolveAll(tab, keys, 1000))
		again := resolveAll(tab, keys, n)
		for i, id := range again {
			if id != int32(i) {
				t.Fatalf("%s: key %d lost its id during growth: %d", s, keys[i], id)
			}
		}
	}
}

func TestGroupTablePresizedDoesNotGrow(t *testing.T) {
	// A table sized for its keys up front never reallocates: its footprint
	// after the load is its footprint before.
	for _, s := range Schemes() {
		tab := NewGroupTable(s, Murmur3Fin, 1000)
		before := tab.MemBytes()
		keys := make([]uint32, 1000)
		for i := range keys {
			keys[i] = uint32(i) * 7919
		}
		resolveAll(tab, keys, 256)
		if after := tab.MemBytes(); after != before {
			t.Fatalf("%s: footprint moved from %d to %d bytes under its own capacity hint", s, before, after)
		}
	}
}

func TestGroupTableIdentityHashAdversarial(t *testing.T) {
	// Keys that all collide under identity&mask must still be correct (just
	// slow) — correctness may not depend on hash quality.
	for _, s := range Schemes() {
		tab := NewGroupTable(s, Identity, 0)
		const stride = 1 << 20
		keys := make([]uint32, 300)
		for i := range keys {
			keys[i] = uint32(i * stride)
		}
		checkDirectory(t, s.String(), tab, keys, resolveAll(tab, keys, 64))
	}
}

func TestChainedGroupsInsertionOrder(t *testing.T) {
	tab := NewGroupTable(Chained, Murmur3Fin, 0)
	resolveAll(tab, []uint32{42, 7, 99, 7, 13}, 2)
	order, ids := tab.Groups()
	if want := []uint32{42, 7, 99, 13}; !slices.Equal(order, want) || ids != nil {
		t.Fatalf("Groups = %v (ids %v), want first-seen %v in id order", order, ids, want)
	}
}

func BenchmarkGroupTableResolve(b *testing.B) {
	r := xrand.New(2)
	const n = 1 << 16
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32n(1024)
	}
	ids := make([]int32, n)
	for _, s := range Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			tab := NewGroupTable(s, Murmur3Fin, 1024)
			b.SetBytes(n * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Resolve(keys, ids)
			}
		})
	}
}
