package hashtable

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dqo/internal/xrand"
)

// chainedMulti is the insert-at-a-time chained multimap that Multi replaced,
// kept as the reference for its emission-order contract: rows with equal keys
// form an intrusive list headed by the latest insert, the directory doubles
// whenever the average chain length reaches two, and a probe walks the chain
// from its head.
type chainedMulti struct {
	fn      Func
	mask    uint64
	heads   []int32
	entries []chainedMultiEntry
}

type chainedMultiEntry struct {
	key  uint32
	row  int32
	next int32
}

func newChainedMulti(f Func, capacity int) *chainedMulti {
	nb := nextPow2(capacity)
	m := &chainedMulti{fn: f, mask: uint64(nb - 1), heads: make([]int32, nb)}
	for i := range m.heads {
		m.heads[i] = -1
	}
	return m
}

func (m *chainedMulti) insert(key uint32, row int32) {
	if len(m.entries) >= len(m.heads)*2 {
		nb := len(m.heads) * 2
		m.heads = make([]int32, nb)
		m.mask = uint64(nb - 1)
		for i := range m.heads {
			m.heads[i] = -1
		}
		for i := range m.entries {
			b := m.fn.Hash(m.entries[i].key) & m.mask
			m.entries[i].next = m.heads[b]
			m.heads[b] = int32(i)
		}
	}
	b := m.fn.Hash(key) & m.mask
	m.entries = append(m.entries, chainedMultiEntry{key: key, row: row, next: m.heads[b]})
	m.heads[b] = int32(len(m.entries) - 1)
}

func (m *chainedMulti) probe(key uint32) []int32 {
	var rows []int32
	b := m.fn.Hash(key) & m.mask
	for i := m.heads[b]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key == key {
			rows = append(rows, m.entries[i].row)
		}
	}
	return rows
}

// fillRows probes m the way the join kernels do: count, then fill a buffer
// of exactly that size.
func fillRows(t *testing.T, m interface {
	Count(uint32) int
	Fill(uint32, []int32) int
}, key uint32) []int32 {
	t.Helper()
	n := m.Count(key)
	if n == 0 {
		return nil
	}
	rows := make([]int32, n)
	if got := m.Fill(key, rows); got != n {
		t.Fatalf("Fill(%d) wrote %d rows, Count said %d", key, got, n)
	}
	return rows
}

// checkBatch probes idx with the whole key batch and compares the pairs with
// the per-key expectation; the per-key counts of CountEach, repeated, must be
// the probe side of those pairs.
func checkBatch(t *testing.T, idx interface {
	CountBatch([]uint32) int
	CountEach([]uint32, []int32) int
	FillBatch([]uint32, int32, []int32, []int32) int
}, keys []uint32, first int32, wantBuild, wantProbe []int32) {
	t.Helper()
	n := idx.CountBatch(keys)
	if n != len(wantBuild) {
		t.Fatalf("CountBatch = %d, want %d", n, len(wantBuild))
	}
	counts := make([]int32, len(keys))
	if got := idx.CountEach(keys, counts); got != n {
		t.Fatalf("CountEach = %d, CountBatch = %d", got, n)
	}
	var repeated []int32
	for i, c := range counts {
		for ; c > 0; c-- {
			repeated = append(repeated, first+int32(i))
		}
	}
	if !slices.Equal(repeated, wantProbe) {
		t.Fatalf("CountEach's counts expand to different probe rows than the per-key probes")
	}
	build, probe := make([]int32, n), make([]int32, n)
	if got := idx.FillBatch(keys, first, build, probe); got != n {
		t.Fatalf("FillBatch wrote %d pairs, CountBatch said %d", got, n)
	}
	if n > 0 && (!reflect.DeepEqual(build, wantBuild) || !reflect.DeepEqual(probe, wantProbe)) {
		t.Fatalf("FillBatch pairs differ from the per-key probes")
	}
}

func mustBuildMulti(t *testing.T, f Func, keys []uint32) *Multi {
	t.Helper()
	m, err := BuildMulti(f, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiCountFill(t *testing.T) {
	m := mustBuildMulti(t, Murmur3Fin, []uint32{5, 7, 5})
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if got := fillRows(t, m, 5); !reflect.DeepEqual(got, []int32{2, 0}) {
		t.Fatalf("rows of 5 = %v, want [2 0] (reverse build order)", got)
	}
	if got := fillRows(t, m, 6); got != nil {
		t.Fatalf("rows of 6 = %v, want none", got)
	}
}

// TestMultiMatchesChainedReference pins the emission-order contract: for
// every probed key the build-once table yields exactly the row sequence the
// chained table yielded — across all hash functions, duplicate factors, an
// Identity hash on a regular sparse stride (every key in one bucket chain
// neighbourhood), and the empty build and empty probe sides.
func TestMultiMatchesChainedReference(t *testing.T) {
	r := xrand.New(11)
	type input struct {
		name   string
		build  []uint32
		probes []uint32
	}
	var inputs []input
	for _, dup := range []int{1, 4, 64} {
		const n = 6000
		build := make([]uint32, n)
		for i := range build {
			build[i] = r.Uint32n(uint32(n/dup)) * 3
		}
		probes := make([]uint32, 2000)
		for i := range probes {
			probes[i] = r.Uint32n(uint32(n/dup)*3 + 10) // hits, misses inside the domain, misses above it
		}
		inputs = append(inputs, input{fmt.Sprintf("dup%d", dup), build, probes})
	}
	stride := make([]uint32, 3000)
	for i := range stride {
		stride[i] = uint32(i%1000) * 4096 // low bits all zero: Identity's worst case
	}
	inputs = append(inputs,
		input{"stride", stride, append([]uint32{1, 4095, 4097}, stride[:1200]...)},
		input{"empty-build", nil, []uint32{0, 1, 2}},
		input{"empty-probe", []uint32{1, 2, 3}, nil},
	)
	for _, f := range Funcs() {
		for _, in := range inputs {
			t.Run(f.String()+"/"+in.name, func(t *testing.T) {
				m := mustBuildMulti(t, f, in.build)
				ref := newChainedMulti(f, len(in.build))
				grown := newChainedMulti(f, 0) // the reference's order must not depend on its growth history
				for i, k := range in.build {
					ref.insert(k, int32(i))
					grown.insert(k, int32(i))
				}
				if m.Len() != len(in.build) {
					t.Fatalf("Len = %d, want %d", m.Len(), len(in.build))
				}
				if m.MemBytes() != MultiBytes(len(in.build)) {
					t.Fatalf("MemBytes = %d, MultiBytes = %d", m.MemBytes(), MultiBytes(len(in.build)))
				}
				if n := len(in.build); n > 0 && m.MemBytes() > int64(nextPow2(n))*4+int64(n)*12 {
					t.Fatalf("footprint %d exceeds the chained table's %d", m.MemBytes(), nextPow2(n)*4+n*12)
				}
				var wantBuild, wantProbe []int32
				for j, k := range in.probes {
					want := ref.probe(k)
					if g := grown.probe(k); !reflect.DeepEqual(g, want) {
						t.Fatalf("reference disagrees with itself on key %d: %v vs %v", k, g, want)
					}
					if got := fillRows(t, m, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("key %d: rows %v, chained reference %v", k, got, want)
					}
					for _, row := range want {
						wantBuild, wantProbe = append(wantBuild, row), append(wantProbe, 7+int32(j))
					}
				}
				checkBatch(t, m, in.probes, 7, wantBuild, wantProbe)
			})
		}
	}
}

func TestBuildMultiStops(t *testing.T) {
	keys := make([]uint32, 5*buildPoll)
	stopErr := errors.New("stop")
	for _, failAt := range []int{1, 4, 8} { // first pass, second pass
		polls := 0
		_, err := BuildMulti(Fibonacci, keys, func() error {
			polls++
			if polls == failAt {
				return stopErr
			}
			return nil
		})
		if !errors.Is(err, stopErr) {
			t.Fatalf("failAt %d: err = %v after %d polls, want stop", failAt, err, polls)
		}
	}
}

// TestBuildsPollAtBlockBoundaries: both builds poll once per buildPoll rows of
// each of their two passes — never per row — and an SPH build stops in either
// pass like a Multi build does.
func TestBuildsPollAtBlockBoundaries(t *testing.T) {
	keys := make([]uint32, 4*buildPoll+1) // five blocks, the last of one row
	polls := 0
	count := func() error { polls++; return nil }
	if _, err := BuildMulti(Murmur3Fin, keys, count); err != nil || polls != 10 {
		t.Fatalf("BuildMulti polled %d times (err %v), want 10", polls, err)
	}
	polls = 0
	if _, err := BuildSPH(keys, 0, 1, count); err != nil || polls != 10 {
		t.Fatalf("BuildSPH polled %d times (err %v), want 10", polls, err)
	}
	stopErr := errors.New("stop")
	for _, failAt := range []int{1, 5, 6, 10} {
		polls = 0
		_, err := BuildSPH(keys, 0, 1, func() error {
			if polls++; polls == failAt {
				return stopErr
			}
			return nil
		})
		if !errors.Is(err, stopErr) || polls != failAt {
			t.Fatalf("failAt %d: err = %v after %d polls", failAt, err, polls)
		}
	}
}

// TestSPHMatchesMulti: an SPH directory yields the same rows per key as a
// Multi built over the same keys, and its batch probe agrees with the per-key
// probes. The builds are one with duplicates, one over a key (every slot one
// row or none) and an empty one; the probes are every key of the domain and
// around it in order, and random keys below the domain (which wrap around),
// inside it and above it, whose last ones all miss. Both tables' CountRows
// gives every build row as many matches as the pairs hold it, and stops at
// a failing poll.
func TestSPHMatchesMulti(t *testing.T) {
	r := xrand.New(5)
	const lo, width = 100, 500
	dups := make([]uint32, 4000)
	for i := range dups {
		dups[i] = lo + r.Uint32n(width)
	}
	unique := make([]uint32, width)
	for i := range unique {
		unique[i] = lo + uint32(i)
	}
	r.ShuffleUint32(unique)
	unique = unique[:width/2]
	ordered := make([]uint32, lo+width+50)
	for k := range ordered {
		ordered[k] = uint32(k)
	}
	random := make([]uint32, 5000)
	for i := range random {
		random[i] = r.Uint32n(lo + width + 100)
	}
	random = append(random, 0, lo-1, lo+width, ^uint32(0))
	for _, keys := range [][]uint32{dups, unique, nil} {
		d, err := BuildSPH(keys, lo, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := mustBuildMulti(t, Murmur3Fin, keys)
		for _, probes := range [][]uint32{ordered, random} {
			var wantBuild, wantProbe []int32
			for j, k := range probes {
				want := fillRows(t, m, k)
				if got := fillRows(t, d, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d build keys, key %d: SPH rows %v, Multi rows %v", len(keys), k, got, want)
				}
				for _, row := range want {
					wantBuild, wantProbe = append(wantBuild, row), append(wantProbe, 3+int32(j))
				}
			}
			checkBatch(t, d, probes, 3, wantBuild, wantProbe)
			wantRows := make([]int32, len(keys))
			for _, row := range wantBuild {
				wantRows[row]++
			}
			for name, idx := range map[string]interface {
				CountRows(keys []uint32, counts []int32, stop func() error) error
			}{"SPH": d, "Multi": m} {
				got := make([]int32, len(keys))
				for i := range got {
					got[i] = -1 // overwritten, not added to
				}
				if err := idx.CountRows(probes, got, nil); err != nil || !slices.Equal(got, wantRows) {
					t.Fatalf("%s over %d build keys: CountRows = %v, %v; the pairs hold %v", name, len(keys), got, err, wantRows)
				}
				stopErr := errors.New("stop")
				if err := idx.CountRows(probes, got, func() error { return stopErr }); !errors.Is(err, stopErr) {
					t.Fatalf("%s: CountRows under a failing poll returned %v", name, err)
				}
			}
		}
		if d.MemBytes() != SPHBytes(width, len(keys)) {
			t.Fatalf("MemBytes = %d, SPHBytes = %d", d.MemBytes(), SPHBytes(width, len(keys)))
		}
	}
	for _, bad := range []uint32{lo - 1, lo + width} {
		if _, err := BuildSPH([]uint32{lo, bad}, lo, width, nil); err == nil {
			t.Fatalf("build key %d outside [%d,%d) accepted", bad, lo, lo+width)
		}
	}
}

// TestResolveWindowing checks that a table ends in the same state however
// its input is cut into Resolve calls — ids row for row and Groups in
// iteration order — across hash-block boundaries and growth.
func TestResolveWindowing(t *testing.T) {
	r := xrand.New(3)
	keys := make([]uint32, 3*hashBlock+17)
	for i := range keys {
		keys[i] = r.Uint32n(300)
	}
	for _, f := range Funcs() {
		one, bulk := NewGroupTable(f, 0), NewGroupTable(f, 0)
		oneIDs, bulkIDs := resolveAll(one, keys, 1), resolveAll(bulk, keys, len(keys))
		if !slices.Equal(oneIDs, bulkIDs) || !slices.Equal(one.Groups(), bulk.Groups()) {
			t.Fatalf("%s: one Resolve over all rows diverges from one per row", f)
		}
	}
}

func TestHashBatchMatchesHash(t *testing.T) {
	keys := []uint32{0, 1, 2, 77, 1 << 20, ^uint32(0)}
	dst := make([]uint64, len(keys))
	for _, f := range Funcs() {
		f.HashBatch(dst, keys)
		for i, k := range keys {
			if dst[i] != f.Hash(k) {
				t.Fatalf("%s: HashBatch(%d) = %#x, Hash = %#x", f, k, dst[i], f.Hash(k))
			}
		}
	}
}
