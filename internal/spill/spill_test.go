package spill

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"dqo/internal/govern"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// everyKind is a relation with one column of each kind the engine stores.
func everyKind(n int) *storage.Relation {
	u32, u64, i64, f64, s := make([]uint32, n), make([]uint64, n), make([]int64, n), make([]float64, n), make([]string, n)
	words := []string{"delta", "alpha", "", "charlie", "bravo"}
	for i := 0; i < n; i++ {
		u32[i], u64[i], i64[i], f64[i] = uint32(i*2654435761), uint64(i)<<40|7, int64(i)*-3+1, float64(i)/7-1
		s[i] = words[(i*3)%len(words)]
	}
	return storage.MustNewRelation("every", storage.NewUint32("u32", u32), storage.NewUint64("u64", u64),
		storage.NewInt64("i64", i64), storage.NewFloat64("f64", f64), storage.NewString("s", s))
}

func newTestDir(t testing.TB, diskLimit int64) (*Dir, *govern.Budget) {
	t.Helper()
	disk := govern.NewDiskBudget(diskLimit)
	d, err := NewDir(t.TempDir(), &govern.Ctl{Ctx: context.Background(), Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Cleanup(); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	return d, disk
}

// writeRun appends each batch as one frame and finishes the run.
func writeRun(t *testing.T, d *Dir, batches ...*storage.Relation) *Run {
	t.Helper()
	w, err := d.NewRun("test run/1")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// readRun streams a run back; the reader is closed whatever happens.
func readRun(t *testing.T, run *Run, dicts map[string]*storage.Dict) ([]*storage.Relation, error) {
	t.Helper()
	rd, err := run.Open(dicts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := rd.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var out []*storage.Relation
	for {
		b, err := rd.Next()
		if err != nil {
			return out, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b)
	}
}

// TestFrameRoundTripEveryKind: batches of every column kind, an empty batch
// included, come back frame for frame as written; with the dictionary pool
// seeded from the original relation the string columns share its dictionary
// object and codes, so Concat over the decoded batches keeps the dictionary.
func TestFrameRoundTripEveryKind(t *testing.T) {
	rel := everyKind(1000)
	batches := []*storage.Relation{rel.Slice(0, 300), rel.Slice(300, 300), rel.Slice(300, 301), rel.Slice(301, 1000)}
	d, disk := newTestDir(t, 0)
	run := writeRun(t, d, batches...)
	if run.Rows != 1000 || run.Bytes <= 0 || d.Written() != run.Bytes || disk.Used() != run.Bytes {
		t.Fatalf("run accounting: rows %d bytes %d written %d disk %d", run.Rows, run.Bytes, d.Written(), disk.Used())
	}
	orig := rel.MustColumn("s").Dict()
	got, err := readRun(t, run, map[string]*storage.Dict{"s": orig})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("%d frames read, %d written", len(got), len(batches))
	}
	for i, b := range got {
		if !b.Equal(batches[i]) || b.Name() != "every" {
			t.Fatalf("frame %d differs from the batch written:\n%s", i, b)
		}
		sc := b.MustColumn("s")
		if sc.Dict() != orig {
			t.Fatalf("frame %d: string column did not re-attach to the seeded dictionary", i)
		}
		want := batches[i].MustColumn("s").Uint32s()
		for j, code := range sc.Uint32s() {
			if code != want[j] {
				t.Fatalf("frame %d row %d: code %d, want %d", i, j, code, want[j])
			}
		}
	}
	whole, err := storage.Concat(nil, got)
	if err != nil || !whole.Equal(rel) || whole.MustColumn("s").Dict() != orig {
		t.Fatalf("concat of decoded frames: err %v, shares dictionary %v", err, whole.MustColumn("s").Dict() == orig)
	}

	// Unseeded pool: one fresh dictionary for the whole run, same strings.
	fresh, err := readRun(t, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fresh {
		if !b.Equal(batches[i]) {
			t.Fatalf("unseeded frame %d differs", i)
		}
		if b.MustColumn("s").Dict() != fresh[0].MustColumn("s").Dict() || b.MustColumn("s").Dict() == orig {
			t.Fatalf("unseeded frame %d: dictionary not shared within the run", i)
		}
	}

	// A pool that already assigns other codes: values survive via the remap,
	// also in later frames, which do not carry the dictionary again.
	other := storage.NewDict()
	for _, w := range []string{"zulu", "bravo", "alpha"} {
		other.Intern(w)
	}
	remapped, err := readRun(t, run, map[string]*storage.Dict{"s": other})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range remapped {
		if !b.Equal(batches[i]) || b.MustColumn("s").Dict() != other {
			t.Fatalf("remapped frame %d differs or left the pool dictionary", i)
		}
	}

	if err := run.Remove(); err != nil || disk.Used() != 0 {
		t.Fatalf("remove: err %v, %d disk bytes still accounted", err, disk.Used())
	}
}

// corruptRun is a run-file image damaged in one of the ways the framing is
// meant to catch, and the number of frames that still decode before the
// damage.
type corruptRun struct {
	name   string
	file   []byte
	intact int
}

// corruptRuns writes a valid two-frame run of every column kind into d and
// returns it, its file image, and that image damaged every which way.
func corruptRuns(t testing.TB, d *Dir) (*Run, []byte, []corruptRun) {
	t.Helper()
	rel := everyKind(64)
	w, err := d.NewRun("clean")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*storage.Relation{rel.Slice(0, 40), rel.Slice(40, 64)} {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	clean, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(clean.path)
	if err != nil {
		t.Fatal(err)
	}
	second := 12 + int(binary.LittleEndian.Uint32(image[4:])) // offset of the second frame
	emptyFrame := make([]byte, 12)
	binary.LittleEndian.PutUint32(emptyFrame, frameMagic) // length 0, CRC of nothing = 0

	with := func(off int, b byte) []byte {
		c := append([]byte(nil), image...)
		c[off] ^= b
		return c
	}
	withLen := func(off int, n uint32) []byte {
		c := append([]byte(nil), image...)
		binary.LittleEndian.PutUint32(c[off+4:], n)
		return c
	}
	return clean, image, []corruptRun{
		{"bad magic", with(0, 0xff), 0},
		{"bad magic in second frame", with(second+1, 0x01), 1},
		{"flipped checksum", with(8, 0x01), 0},
		{"flipped payload byte", with(12+30, 0x80), 0},
		{"flipped payload byte in second frame", with(len(image)-1, 0x01), 1},
		{"truncated header", image[:7], 0},
		{"truncated second header", image[:second+11], 1},
		{"truncated payload", image[:second-5], 0},
		{"length past end of file", withLen(second, 1<<31), 1},
		{"length one too long", withLen(0, uint32(second-12+1)), 0},
		{"length too short", withLen(0, uint32(second-12-1)), 0},
		{"zero-length frame", emptyFrame, 0},
		{"zero-length frame after a valid one", append(append([]byte(nil), image[:second]...), emptyFrame...), 1},
		{"garbage", []byte("not a spill run at all, just some text"), 0},
	}
}

// TestCorruptRunIsTypedError damages a valid two-frame run in every way the
// framing is meant to catch. Each must surface as qerr.ErrSpillIO — from
// Next, never as a panic — after the intact frames before the damage.
func TestCorruptRunIsTypedError(t *testing.T) {
	d, _ := newTestDir(t, 0)
	clean, _, cases := corruptRuns(t, d)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := d.NewRun(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			run, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(run.path, tc.file, 0o600); err != nil {
				t.Fatal(err)
			}
			got, err := readRun(t, run, nil)
			if !errors.Is(err, qerr.ErrSpillIO) {
				t.Fatalf("err = %v after %d frames, want ErrSpillIO", err, len(got))
			}
			if len(got) != tc.intact {
				t.Fatalf("%d frames decoded before the error, want %d", len(got), tc.intact)
			}
		})
	}
	// The undamaged image still reads back whole.
	if got, err := readRun(t, clean, nil); err != nil || len(got) != 2 {
		t.Fatalf("clean run: %d frames, err %v", len(got), err)
	}
}

// TestDiskBudgetAndCleanup: frame bytes are charged before they are written,
// a write past the limit is the typed limit error, an aborted run gives its
// bytes back, and Cleanup releases the rest, is idempotent, and closes the
// directory for new runs.
func TestDiskBudgetAndCleanup(t *testing.T) {
	rel := everyKind(500)
	d, disk := newTestDir(t, 0)
	size := writeRun(t, d, rel).Bytes

	d, disk = newTestDir(t, size+size/2)
	kept := writeRun(t, d, rel)
	w, err := d.NewRun("over")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rel.Slice(0, 100)); err != nil {
		t.Fatalf("append within the limit: %v", err)
	}
	if err := w.Append(rel); !errors.Is(err, qerr.ErrSpillLimitExceeded) {
		t.Fatalf("append past the limit: err = %v, want ErrSpillLimitExceeded", err)
	}
	w.Abort()
	if disk.Used() != kept.Bytes {
		t.Fatalf("after abort %d disk bytes accounted, want the kept run's %d", disk.Used(), kept.Bytes)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if disk.Used() != 0 {
		t.Fatalf("%d disk bytes accounted after cleanup", disk.Used())
	}
	if _, err := os.Stat(d.Path()); !os.IsNotExist(err) {
		t.Fatalf("spill directory survives cleanup: %v", err)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatalf("second cleanup: %v", err)
	}
	if _, err := d.NewRun("late"); !errors.Is(err, qerr.ErrSpillIO) {
		t.Fatalf("NewRun after cleanup: err = %v, want ErrSpillIO", err)
	}
	if _, err := kept.Open(nil); !errors.Is(err, qerr.ErrSpillIO) {
		t.Fatalf("opening a removed run: err = %v, want ErrSpillIO", err)
	}
}
