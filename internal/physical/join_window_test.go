package physical

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// uniqueProbeCase is a join on a key: half of the domain [lo, lo+width) is
// built once each, and the probe keys fall below the domain, inside it and
// above it, so about half of the probes hit. The probe side splits into
// chunks at 2 and 4 workers, and at 2 each chunk takes two fill calls.
func uniqueProbeCase() (build, probe []uint32, dom props.Domain) {
	r := xrand.New(38)
	const lo, width = 500, 6000
	build = make([]uint32, width)
	for i := range build {
		build[i] = lo + uint32(i)
	}
	r.ShuffleUint32(build)
	build = build[:width/2]
	probe = make([]uint32, 4*minParallelChunk+311)
	for i := range probe {
		probe[i] = r.Uint32n(lo + width + 300)
	}
	return build, probe, props.Domain{Known: true, Dense: true, Lo: lo, Hi: lo + width - 1, Distinct: width}
}

// samePairs compares a result's taken sides with the reference pairs.
func samePairs(res *JoinResult, sides pairSides, wantBuild, wantProbe []int32) error {
	if sides&leftRows != 0 && !slices.Equal(res.LeftIdx, wantBuild) {
		return fmt.Errorf("build rows differ (%d of them, want %d)", len(res.LeftIdx), len(wantBuild))
	}
	if sides&rightRows != 0 && !slices.Equal(res.RightIdx, wantProbe) {
		return fmt.Errorf("probe rows differ (%d of them, want %d)", len(res.RightIdx), len(wantProbe))
	}
	if sides&leftRows == 0 && res.LeftIdx != nil || sides&rightRows == 0 && res.RightIdx != nil {
		return fmt.Errorf("a side that was not asked for was taken")
	}
	return nil
}

// TestUniqueSPHJAcrossChunks: an SPHJ built on a key (a unique directory,
// filled by the loop that writes every probe's pair and advances by its hit)
// returns the reference's pairs serially and with the probe split into 2 and
// 4 chunks whose pairs meet in one array: built fresh, probed through a table
// built beforehand and kept (what an Algorithmic View is), and keeping the
// probe rows alone, which repeats each probe row by its count instead.
func TestUniqueSPHJAcrossChunks(t *testing.T) {
	build, probe, dom := uniqueProbeCase()
	wantBuild, wantProbe := referencePairs(build, probe)
	if hits := len(wantBuild); 10*hits < 4*len(probe) || 10*hits > 6*len(probe) {
		t.Fatalf("%d hits of %d probes, want about half", hits, len(probe))
	}
	tab, err := buildJoinTable(SPHJ, build, dom, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab.Keep()
	defer tab.Release()
	for _, sides := range []pairSides{leftRows, rightRows, bothRows} {
		var serial *JoinResult
		for _, workers := range []int{1, 2, 4} {
			fresh, err := joinSides(SPHJ, build, probe, dom, JoinOptions{Parallel: workers}, sides)
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := probeIndex(tab.Index(), probe, workers, &resv{}, sides)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				how string
				res *JoinResult
			}{{"fresh", fresh}, {"indexed", indexed}} {
				label := fmt.Sprintf("sides=%b/workers=%d/%s", sides, workers, got.how)
				if err := samePairs(got.res, sides, wantBuild, wantProbe); err != nil {
					t.Fatalf("%s: against the reference: %v", label, err)
				}
				if serial == nil {
					serial = got.res
				} else if err := samePairs(got.res, sides, serial.LeftIdx, serial.RightIdx); err != nil {
					t.Fatalf("%s: against the serial kernel: %v", label, err)
				}
			}
		}
	}
}

// TestFillStaysInsideItsWindow: the fill kernels may write scratch past their
// last pair, but only inside the window they are handed — a chunked probe
// relies on it, since the next slot belongs to the next chunk. Each window is
// followed by sentinels, and it is exactly as long as the pairs or a little
// longer; the batches end in misses, where a predicated write is tempted
// past the end. The pairs written must be the reference's. The SPH fill and
// repeatRows also get windows too short for their pairs: they write those
// that fit and return the full number, which is how a probe whose two passes
// disagree finds out.
func TestFillStaysInsideItsWindow(t *testing.T) {
	const sentinel, guard = -7, 8
	build, probe, dom := uniqueProbeCase()
	probe = append(probe[:3000], 0, 1, 2, 1<<30) // misses below and above the domain last
	dup := append(slices.Clone(build), build[:500]...)
	withWindow := func(pairs, slack int, wanted bool) (window, all []int32) {
		if !wanted {
			return nil, nil
		}
		all = make([]int32, pairs+slack+guard)
		for i := range all {
			all[i] = sentinel
		}
		return all[:pairs+slack], all
	}
	for _, c := range []struct {
		name string
		keys []uint32
		hash bool
	}{{"sph-unique", build, false}, {"sph-duplicates", dup, false}, {"multi", dup, true}} {
		var idx RowIndex
		var err error
		if c.hash {
			idx, err = hashtable.BuildMulti(hashtable.Murmur3Fin, c.keys, nil)
		} else {
			idx, err = hashtable.BuildSPH(c.keys, uint32(dom.Lo), int(dom.Width()), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantBuild, wantProbe := referencePairs(c.keys, probe)
		pairs := idx.CountBatch(probe)
		for _, slack := range []int{-3, -1, 0, 1, 5} {
			if slack < 0 && c.hash {
				continue // Multi's fill is bounds-checked: a short window panics
			}
			for _, sides := range []pairSides{leftRows, rightRows, bothRows} {
				b, ball := withWindow(pairs, slack, sides&leftRows != 0)
				p, pall := withWindow(pairs, slack, sides&rightRows != 0)
				label := fmt.Sprintf("%s/slack=%d/sides=%b", c.name, slack, sides)
				if n := idx.FillBatch(probe, 0, b, p); n != pairs {
					t.Fatalf("%s: %d pairs, CountBatch said %d", label, n, pairs)
				}
				for _, s := range []struct {
					all, want []int32
				}{{ball, wantBuild}, {pall, wantProbe}} {
					if s.all == nil {
						continue
					}
					if k := min(pairs, pairs+slack); !slices.Equal(s.all[:k], s.want[:k]) {
						t.Fatalf("%s: pairs differ from the reference", label)
					}
					for i, v := range s.all[pairs+slack:] {
						if v != sentinel {
							t.Fatalf("%s: wrote %d at %d past the window's end", label, v, i)
						}
					}
				}
			}
		}
	}
	// repeatRows, over counts of 0, 1 and more, ending in zeros.
	r := xrand.New(39)
	counts := make([]int32, 2000)
	var want []int32
	for i := range counts[:1990] {
		counts[i] = int32(r.Uint32n(5)) / 2 // 0 0 1 1 2
		for range counts[i] {
			want = append(want, 40+int32(i))
		}
	}
	for _, slack := range []int{-3, -1, 0, 1, 5} {
		dst, all := withWindow(len(want), slack, true)
		k := min(len(want), len(dst))
		if n := repeatRows(counts, 40, dst); n != len(want) || !slices.Equal(dst[:k], want[:k]) {
			t.Fatalf("repeatRows slack=%d: %d rows, want %d, or the rows differ", slack, n, len(want))
		}
		for i, v := range all[len(want)+slack:] {
			if v != sentinel {
				t.Fatalf("repeatRows slack=%d: wrote %d at %d past the window's end", slack, v, i)
			}
		}
	}
}

// miscounter is an SPH directory whose count pass is off by by pairs on every
// batch, so that its fills do not end where the counts say.
type miscounter struct {
	*hashtable.SPH
	by int
}

func (m miscounter) CountBatch(keys []uint32) int { return m.SPH.CountBatch(keys) + m.by }

func (m miscounter) CountEach(keys []uint32, counts []int32) int {
	return m.SPH.CountEach(keys, counts) + m.by
}

// TestProbeReportsAMiscount: when an index's count and fill disagree, by a
// pair too many or too few per batch, the probe returns an error instead of
// pairs cut short or stale scratch in the result — through FillBatch and,
// keeping the probe rows alone, through repeatRows, serially and in chunks.
func TestProbeReportsAMiscount(t *testing.T) {
	build, probe, dom := uniqueProbeCase()
	d, err := hashtable.BuildSPH(build, uint32(dom.Lo), int(dom.Width()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	for _, by := range []int{-1, 1} {
		for _, sides := range []pairSides{leftRows, rightRows, bothRows} {
			for _, workers := range []int{1, 2} {
				res, err := probePairs(miscounter{d, by}, probe, workers, &resv{}, sides)
				if err == nil {
					res.Release()
					t.Fatalf("by=%d/sides=%b/workers=%d: no error", by, sides, workers)
				}
			}
		}
	}
}

// fillRecorder is a Multi that notes the first probe row of every FillBatch
// call: the probe's chunking, seen from the index.
type fillRecorder struct {
	*hashtable.Multi
	mu     sync.Mutex
	firsts []int32
}

func (f *fillRecorder) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	f.mu.Lock()
	f.firsts = append(f.firsts, first)
	f.mu.Unlock()
	return f.Multi.FillBatch(keys, first, build, probe)
}

// TestIndexProbesAtTheJoinsParallelism pins that a join through a prebuilt
// index probes at the join's parallelism, HJ as SPHJ: at Parallel 2 a probe
// chunk starts at the middle of the probe side, and at Parallel 1 every fill
// call starts where a serial probe's poll interval does. (Plans probe an
// index serially: the optimiser gives an index join no parallelism.)
func TestIndexProbesAtTheJoinsParallelism(t *testing.T) {
	build, probe, _ := uniqueProbeCase()
	m, err := hashtable.BuildMulti(hashtable.Murmur3Fin, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	l := storage.MustNewRelation("L", storage.NewUint32("k", build))
	r := storage.MustNewRelation("R", storage.NewUint32("k2", probe))
	mid := int32((len(probe) + 1) / 2)
	for _, kind := range []JoinKind{HJ, SPHJ} {
		for _, par := range []int{1, 2} {
			idx := &fillRecorder{Multi: m}
			if _, err := JoinRel(l, r, "k", "k2", kind, JoinOptions{Parallel: par}, props.Domain{}, false, nil, idx); err != nil {
				t.Fatal(err)
			}
			if split := slices.Contains(idx.firsts, mid); split != (par == 2) {
				t.Fatalf("%s at Parallel %d: fill calls start at %v; a chunk at %d: %v", kind, par, idx.firsts, mid, split)
			}
			for _, f := range idx.firsts {
				if par == 1 && f%checkEvery != 0 {
					t.Fatalf("%s serially: a fill call starts at %d", kind, f)
				}
			}
		}
	}
}
