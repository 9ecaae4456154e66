package props

import (
	"math/rand"
	"testing"
)

// keyPool builds property sets that differ from one another in one component
// at a time and in random combinations, including the spellings Fingerprint
// treats as equal: permuted and duplicated name lists, unknown domains,
// other map insertion orders.
func keyPool() []Set {
	names := []string{"R.ID", "R.A", "S.R_ID", "S.M", "D.G", "D.W"}
	dom := func(dense bool, lo, hi uint64, distinct int64) Domain {
		return Domain{Known: true, Dense: dense, Lo: lo, Hi: hi, Distinct: distinct}
	}
	pool := []Set{
		{},
		NewSet(),
		{SortedBy: []string{"R.A"}},
		{GroupedBy: []string{"R.A"}},
		{SortedBy: []string{"R.A", "R.ID"}},
		{SortedBy: []string{"R.ID", "R.A"}},
		{SortedBy: []string{"R.ID", "R.A", "R.ID"}},
		{SortedBy: []string{"R.A"}, GroupedBy: []string{"R.ID"}},
		{SortedBy: []string{"R.ID"}, GroupedBy: []string{"R.A"}},
		{Corrs: []Corr{{"R.ID", "R.A"}}},
		{Corrs: []Corr{{"R.A", "R.ID"}}},
		{Corrs: []Corr{{"R.ID", "R.A"}, {"D.G", "D.W"}}},
		{Corrs: []Corr{{"D.G", "D.W"}, {"R.ID", "R.A"}}}, // sequence, not set
		{Corrs: []Corr{{"R.ID", "R.A"}, {"R.ID", "R.A"}}},
		{Cols: map[string]Domain{"R.A": {}}}, // unknown: as good as absent
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(false, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 1, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 10, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 9)}},
		{Cols: map[string]Domain{"R.ID": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10), "R.ID": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10), "R.ID": {}}},
	}
	r := rand.New(rand.NewSource(7))
	pick := func() []string {
		var out []string
		for _, n := range names {
			if r.Intn(3) == 0 {
				out = append(out, n)
			}
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for i := 0; i < 300; i++ {
		s := NewSet()
		s.SortedBy, s.GroupedBy = pick(), pick()
		for _, k := range pick() {
			s.Corrs = append(s.Corrs, Corr{Key: k, Dep: names[r.Intn(len(names))]})
		}
		for _, c := range pick() {
			lo := uint64(r.Intn(2))
			d := int64(1 + r.Intn(3))
			s.Cols[c] = Domain{Known: r.Intn(4) > 0, Dense: r.Intn(2) == 0, Lo: lo, Hi: lo + uint64(d) - 1, Distinct: d}
		}
		pool = append(pool, s, s.Clone())
	}
	return pool
}

// TestKeyDistinguishesWhatFingerprintDoes: over every pair of the pool, two
// sets share a Key exactly when they share a Fingerprint — the DP tables
// keyed on Key hold the entries the Fingerprint-keyed ones held.
func TestKeyDistinguishesWhatFingerprintDoes(t *testing.T) {
	pool := keyPool()
	keys := make([]Key, len(pool))
	fps := make([]string, len(pool))
	for i, s := range pool {
		keys[i], fps[i] = s.Key(), s.Fingerprint()
	}
	same := 0
	for i := range pool {
		for j := i + 1; j < len(pool); j++ {
			if (keys[i] == keys[j]) != (fps[i] == fps[j]) {
				t.Fatalf("sets %d and %d: keys equal = %v, fingerprints equal = %v\n  %s\n  %s",
					i, j, keys[i] == keys[j], fps[i] == fps[j], fps[i], fps[j])
			}
			if fps[i] == fps[j] {
				same++
			}
		}
	}
	if same < 300 {
		t.Fatalf("pool has only %d equal pairs; the test does not exercise equality", same)
	}
}

// TestDerivationsLeaveTheirReceiver: sets share their slices and domain map
// with the sets derived from them, so every derivation must copy what it
// changes. Each one is applied twice to every set of the pool, and every
// derivation once more to each result; no set it was applied to may change.
func TestDerivationsLeaveTheirReceiver(t *testing.T) {
	derivations := []struct {
		name   string
		derive func(Set) Set
	}{
		{"DropOrder", Set.DropOrder},
		{"WithSortedBy", func(s Set) Set { return s.WithSortedBy("R.A", "D.G") }},
		{"WithGroupedBy", func(s Set) Set { return s.WithGroupedBy("S.M", "R.ID") }},
		{"WithCorr", func(s Set) Set { return s.WithCorr("S.M", "D.W") }},
		{"WithDomain", func(s Set) Set {
			return s.WithDomain("R.A", Domain{Known: true, Dense: true, Lo: 7, Hi: 9, Distinct: 3})
		}},
		{"Project", func(s Set) Set { return s.Project("R.ID", "R.A", "D.G") }},
		{"AfterSortBy", func(s Set) Set { return s.AfterSortBy("R.ID") }},
	}
	type seen struct {
		set Set
		fp  string
		key Key
	}
	see := func(s Set) seen { return seen{s, s.Fingerprint(), s.Key()} }
	for i, s := range keyPool() {
		for _, d := range derivations {
			recv := see(s)
			results := []seen{see(d.derive(s)), see(d.derive(s))}
			for _, r := range results {
				for _, d2 := range derivations {
					d2.derive(r.set)
				}
			}
			for j, x := range append(results, recv) {
				if fp, key := x.set.Fingerprint(), x.set.Key(); fp != x.fp || key != x.key {
					t.Fatalf("set %d, %s: a later derivation changed set %d of [first, second, receiver]\n  was %s\n  now %s",
						i, d.name, j, x.fp, fp)
				}
			}
		}
	}
}

// joinOutputSet is the shape the optimiser keys most often: the property
// vector of a two-join star's output.
func joinOutputSet() Set {
	s := NewSet()
	s.SortedBy = []string{"D.G", "R.A"}
	s.Corrs = []Corr{{"R.ID", "R.A"}}
	for i, c := range []string{"R.ID", "R.A", "S.R_ID", "S.M", "D.G", "D.W"} {
		s.Cols[c] = Domain{Known: true, Dense: i%2 == 0, Lo: 0, Hi: uint64(1999 + i), Distinct: 2000}
	}
	return s
}

// BenchmarkFingerprint prices keying one property vector for the DP tables
// (key) next to the readable encoding it replaced there (string).
func BenchmarkFingerprint(b *testing.B) {
	s := joinOutputSet()
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		var sink Key
		for i := 0; i < b.N; i++ {
			sink = s.Key()
		}
		_ = sink
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		var sink string
		for i := 0; i < b.N; i++ {
			sink = s.Fingerprint()
		}
		_ = sink
	})
}
