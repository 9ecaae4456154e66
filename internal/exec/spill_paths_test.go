package exec

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// spillFiles counts the run files under the spill parent directory.
func spillFiles(t *testing.T, parent string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(parent, "*", "*.dqs"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestSpillGroupFirstSeenWalk checks the spilling aggregation's order
// restoration — one forward walk per partition, one radix argsort over the
// first-occurrence ordinals — against the chained kernel's first-seen order,
// on the key shapes that stress it, from a quota that flushes every batch to
// one that never spills.
func TestSpillGroupFirstSeenWalk(t *testing.T) {
	const n = 3000
	u32 := func(f func(i int) uint32) *storage.Column {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return storage.NewUint32("k", keys)
	}
	words := make([]string, n)
	for i := range words {
		words[i] = []string{"delta", "alpha", "", "charlie", "bravo", "echo"}[(i*i+i/7)%6]
	}
	shapes := map[string]*storage.Column{
		"duplicate-heavy": u32(func(i int) uint32 { return uint32(i*2654435761) % 11 }),
		"single-group":    u32(func(int) uint32 { return 42 }),
		"all-distinct":    u32(func(i int) uint32 { return uint32(i) * 2654435761 }),
		"dictionary":      storage.NewString("k", words),
		// Key 7 occurs once, as the input's — so its partition's — last row.
		"first-seen-last": u32(func(i int) uint32 {
			if i == n-1 {
				return 7
			}
			return 100 + uint32(i%50)
		}),
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%13) - 6
	}
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "v"}}
	opt := physical.GroupOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
	for name, key := range shapes {
		rel := storage.MustNewRelation("t", key, storage.NewInt64("v", vals))
		want, err := physical.GroupByRel(rel, "k", aggs, physical.HG, opt, props.Domain{})
		if err != nil {
			t.Fatal(err)
		}
		for _, quota := range []int64{1, 4 << 10, 0} {
			for _, morsel := range spillMorsels {
				got, spilled := runSpillTree(t, func() Operator {
					return spillGroup(NewScan(Text("scan"), rel), "k", aggs, opt, props.Domain{})
				}, morsel, 1, quota)
				if (spilled > 0) != (quota > 0) {
					t.Fatalf("%s quota=%d morsel=%d: spilled %d bytes", name, quota, morsel, spilled)
				}
				if !got.Equal(want) {
					t.Fatalf("%s quota=%d morsel=%d: groups or their order diverge from the in-memory kernel", name, quota, morsel)
				}
			}
		}
	}

	// The walk itself: ordinals of first occurrences, and a typed error when
	// it cannot meet every group in the order given.
	keys, rows := []uint32{5, 5, 9, 5, 2, 9, 2}, []uint32{10, 11, 14, 20, 21, 30, 31}
	ord, err := firstSeen([]uint32{1}, keys, rows, []uint32{5, 9, 2})
	if err != nil || len(ord) != 4 || ord[1] != 10 || ord[2] != 14 || ord[3] != 21 {
		t.Fatalf("firstSeen = %v, %v", ord, err)
	}
	for _, gkeys := range [][]uint32{{2, 5, 9}, {5, 9, 2, 8}} {
		if _, err := firstSeen(nil, keys, rows, gkeys); !errors.Is(err, qerr.ErrInternal) {
			t.Fatalf("firstSeen(%v): err = %v, want ErrInternal", gkeys, err)
		}
	}
}

// newTestPartitionSet returns a set fed by a fresh spill-armed context, with
// the budget its reservations go to.
func newTestPartitionSet(t *testing.T, quota int64) (*ExecContext, *partitionSet, *[]*partitionSet, *govern.Budget, string) {
	t.Helper()
	dir := t.TempDir()
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(context.Background(), 256, 1, mem)
	ec.SetSpill(dir, 0)
	t.Cleanup(func() {
		if err := ec.CleanupSpill(); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	b := &base{label: Text("set")}
	h := &holder{ctl: ec.CtlFor(b), b: b}
	sets := new([]*partitionSet)
	return ec, newPartitionSet(h, sets, "set", "key", rowTagL, 0, quota), sets, mem, dir
}

// checkPartition asserts a loaded partition holds exactly the rows of rel
// that hash to p at level, in input order, tagged with their ordinals.
func checkPartition(t *testing.T, got, rel *storage.Relation, p, level int) {
	t.Helper()
	var idx []int32
	for i, k := range rel.MustColumn("key").Uint32s() {
		match := true
		for l := 0; l <= level && match; l++ {
			match = spillBucket(k, l) == p>>(uint(level-l)*spillPartBits)&(spillParts-1)
		}
		if match {
			idx = append(idx, int32(i))
		}
	}
	want := rel.Gather(nil, idx)
	tag := got.NumCols() - 1
	body, err := storage.NewRelation(rel.Name(), got.Columns()[:tag]...)
	if err != nil {
		t.Fatal(err)
	}
	if !body.Equal(want) {
		t.Fatalf("partition %d (level %d): %d rows, want the %d that hash there, in input order", p, level, body.NumRows(), want.NumRows())
	}
	for i, ord := range got.Columns()[tag].Uint32s() {
		if ord != uint32(idx[i]) {
			t.Fatalf("partition %d row %d tagged %d, want input ordinal %d", p, i, ord, idx[i])
		}
	}
}

// TestPartitionSetSingleFile drives a partition set directly: batches and
// flushes interleave into one run file, every partition reads back by its
// extents in input order (also after a repartition one level down), the file
// goes with its last partition, and a set never holds more than one
// descriptor — its run file's, which the writer opens and the reads borrow —
// and none once retired or aborted.
func TestPartitionSetSingleFile(t *testing.T) {
	rel := spillRel("t", 5000, 31)
	fds := openFDs()
	ec, ps, sets, mem, dir := newTestPartitionSet(t, 8<<10)
	disk := ec.Ctl().Disk
	for lo := 0; lo < rel.NumRows(); lo += 300 {
		if err := ps.add(ec, rel.Slice(lo, min(lo+300, rel.NumRows())), false); err != nil {
			t.Fatal(err)
		}
		if lo == 900 { // an early flush between two quota-driven ones
			if err := ps.flush(ec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := spillFiles(t, dir); n != 1 {
		t.Fatalf("%d run files for one partition set", n)
	}
	if fds >= 0 && openFDs() != fds+1 {
		t.Fatalf("a set being written holds %d descriptors, want 1", openFDs()-fds)
	}
	if err := ps.seal(); err != nil {
		t.Fatal(err)
	}
	if fds >= 0 && openFDs() != fds+1 {
		t.Fatalf("a sealed, unread set holds %d descriptors, want its run's 1", openFDs()-fds)
	}
	tails := 0
	for p := 0; p < spillParts; p++ {
		if len(ps.extents[p]) < 3 {
			t.Fatalf("partition %d has %d extents: the flushes did not interleave", p, len(ps.extents[p]))
		}
		tails += ps.fill[p]
	}
	if tails == 0 {
		t.Fatal("vacuous: no partition has an in-memory tail")
	}

	// Partition 3 goes one level down; its children read back like any other.
	child, err := ps.repartition(ec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(*sets) != 2 || child.level != 1 {
		t.Fatalf("repartition registered %d sets, child level %d", len(*sets), child.level)
	}
	load := func(set *partitionSet, p, path int) {
		t.Helper()
		if set.rows[p] == 0 {
			if err := set.retire(p); err != nil {
				t.Fatal(err)
			}
			return
		}
		got, held, err := set.load(ec, p)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, got, rel, path, set.level)
		if fds >= 0 && openFDs() > fds+2 {
			t.Fatalf("%d descriptors open while two sets are read", openFDs()-fds)
		}
		set.h.drop(held)
	}
	for q := 0; q < spillParts; q++ {
		load(child, q, 3<<spillPartBits|q)
	}
	if n := spillFiles(t, dir); n != 1 {
		t.Fatalf("%d run files after the child set's last partition, want the parent's", n)
	}
	for p := 0; p < spillParts; p++ {
		if p != 3 {
			load(ps, p, p)
		}
	}
	if n, used := spillFiles(t, dir), disk.Used(); n != 0 || used != 0 {
		t.Fatalf("after the last partition: %d run files, %d disk bytes accounted", n, used)
	}
	if mem.Used() != 0 {
		t.Fatalf("%d bytes still reserved after every partition was consumed", mem.Used())
	}
	if fds >= 0 && openFDs() != fds {
		t.Fatalf("%d descriptors leaked by retired sets", openFDs()-fds)
	}

	// abort: a set being written, and one being read, each give up their
	// descriptor; what they had on disk stays readable until then.
	ec2, ps2, _, _, _ := newTestPartitionSet(t, 4<<10)
	if err := ps2.add(ec2, rel.Slice(0, 2000), false); err != nil {
		t.Fatal(err)
	}
	ps2.abort()
	if fds >= 0 && openFDs() != fds {
		t.Fatalf("%d descriptors open after aborting a set mid-write", openFDs()-fds)
	}
	ec3, ps3, _, _, _ := newTestPartitionSet(t, 4<<10)
	if err := ps3.add(ec3, rel.Slice(0, 2000), false); err != nil {
		t.Fatal(err)
	}
	if err := ps3.seal(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ps3.load(ec3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, got, rel.Slice(0, 2000), 0, 0)
	ps3.abort()
	if fds >= 0 && openFDs() != fds {
		t.Fatalf("%d descriptors open after aborting a set mid-read", openFDs()-fds)
	}
}

// TestSpillSortMergeWindows forces the external sort through a disk-to-disk
// pass (more runs than the fan-in) over every column kind. The uint64 column
// numbers the input rows, so equality with the stable in-memory sort is
// exactly "ties across runs keep run order".
func TestSpillSortMergeWindows(t *testing.T) {
	base := spillRel("t", 6000, 23)
	ids := make([]uint64, base.NumRows())
	for i := range ids {
		ids[i] = uint64(i)<<32 | 5
	}
	rel := storage.MustNewRelation("t", append(base.Columns(), storage.NewUint64("id", ids))...)
	want, err := physical.SortRel(rel, "key", sortx.Radix, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, morsel := range []int{7, 256} {
		dir := t.TempDir()
		ec := NewExecContext(context.Background(), morsel, 1)
		ec.SetSpill(dir, 0)
		ec.SetSpillQuota(20 << 10) // 216 KB of input: 11+ runs
		root := spillSort(NewScan(Text("scan"), rel), "key", sortx.Radix)
		got, err := Run(ec, root)
		if err != nil {
			t.Fatal(err)
		}
		st := CollectProfile(root)[0]
		if st.SpillParts <= spillFanIn+1 || st.SpillPasses < 2 {
			t.Fatalf("morsel=%d: %d runs, %d passes: no disk-to-disk merge pass happened", morsel, st.SpillParts, st.SpillPasses)
		}
		if !got.Equal(want) {
			t.Fatalf("morsel=%d: merged output diverges from the stable in-memory sort", morsel)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("morsel=%d: spill parent not cleaned: %d entries, err=%v", morsel, len(ents), err)
		}
	}
}

// TestSpillJoinReleasesOrphanedSides joins inputs whose keys fall in
// overlapping halves of the partitions, so eight partitions have rows on one
// side only. Once the last pair is joined nothing but the output may still be
// reserved — an orphaned side's in-memory tail included — and no run file may
// still be charged to the disk budget.
func TestSpillJoinReleasesOrphanedSides(t *testing.T) {
	side := func(name string, lo, hi int) *storage.Relation {
		var keys []uint32
		for k := uint32(1); len(keys) < 4000; k++ {
			if p := spillBucket(k, 0); p >= lo && p < hi {
				keys = append(keys, k)
			}
		}
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(keys[i] % 1000)
		}
		return storage.MustNewRelation(name, storage.NewUint32("key", keys), storage.NewInt64("val", vals))
	}
	left, right := side("l", 0, 8), side("r", 4, 12)
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(context.Background(), 256, 1, mem)
	ec.SetSpill(t.TempDir(), 0)
	ec.SetSpillQuota(16 << 10)
	opt := physical.JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
	root := spillJoin(NewScan(Text("l"), left), NewScan(Text("r"), right), "key", opt, false, props.Domain{}, nil)
	if err := root.Open(ec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		root.Close(ec)
		if err := ec.CleanupSpill(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := root.Next(ec); err != nil { // the first batch materialises the join
		t.Fatal(err)
	}
	st := root.Stats()
	if st.SpillParts != 2*8 || root.out.NumRows() == 0 {
		t.Fatalf("vacuous: %d partitions spilled (want 8 a side), %d output rows", st.SpillParts, root.out.NumRows())
	}
	orphanTails := false
	for _, ps := range root.spill.(*partitioned).sets {
		for p := 0; p < spillParts; p++ {
			orphanTails = orphanTails || ps.rows[p] > 0 && len(ps.extents[p]) == 0 && ps.bufs[p] != nil
		}
	}
	if orphanTails {
		t.Fatal("a retired partition still holds its buffer")
	}
	if used, want := mem.Used(), root.out.MemBytes(); used != want {
		t.Fatalf("%d bytes reserved after the last pair, want the output's %d", used, want)
	}
	if used := ec.Ctl().Disk.Used(); used != 0 {
		t.Fatalf("%d disk bytes still charged after every partition was consumed", used)
	}
}
