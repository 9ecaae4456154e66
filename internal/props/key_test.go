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
		{Layout: RowLayout},
		{Layout: PAXLayout},
		{Cols: map[string]Domain{"R.A": {}}}, // unknown: as good as absent
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(false, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 1, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 10, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 9)}},
		{Cols: map[string]Domain{"R.ID": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10), "R.ID": dom(true, 0, 9, 10)}},
		{Cols: map[string]Domain{"R.A": dom(true, 0, 9, 10), "R.ID": {}}},
		{ColComp: map[string]Compression{"R.A": NoCompression}}, // present, so not the empty set
		{ColComp: map[string]Compression{"R.A": DictCompression}},
		{ColComp: map[string]Compression{"R.A": RLECompression}},
		{ColComp: map[string]Compression{"R.ID": DictCompression}},
		{SortedBy: []string{"R.A"}, ColComp: map[string]Compression{"R.A": DictCompression}},
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
		for _, c := range pick() {
			s.ColComp[c] = Compression(r.Intn(3))
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
