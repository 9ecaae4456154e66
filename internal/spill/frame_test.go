package spill

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// TestReadByOffset: frames come back by the offset BytesWritten reported, in
// any order — as fresh relations, and decoded straight into one caller-owned
// relation of the known total size. A destination that does not fit the frame
// (too few rows left, another schema, another dictionary) is a typed error.
func TestReadByOffset(t *testing.T) {
	rel := everyKind(900)
	cuts := []int{0, 250, 250, 600, 900} // the second frame is empty
	d, _ := newTestDir(t, 0)
	w, err := d.NewRun("extents")
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := 1; i < len(cuts); i++ {
		offs = append(offs, w.BytesWritten())
		if err := w.Append(rel.Slice(cuts[i-1], cuts[i])); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.MustColumn("s").Dict()
	rd, err := run.Open(map[string]*storage.Dict{"s": dict})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	newDst := func(n int, d *storage.Dict) *storage.Relation {
		cols := make([]*storage.Column, rel.NumCols())
		for i, c := range rel.Columns() {
			var cd *storage.Dict
			if c.Dict() != nil {
				cd = d
			}
			if cols[i], err = storage.NewColumn(nil, c.Name(), c.Kind(), cd, n); err != nil {
				t.Fatal(err)
			}
		}
		return storage.MustNewRelation(rel.Name(), cols...)
	}
	dst := newDst(900, dict)
	for _, i := range []int{3, 0, 2, 1} { // not the order they were written in
		got, err := rd.ReadAt(offs[i])
		if err != nil || !got.Equal(rel.Slice(cuts[i], cuts[i+1])) {
			t.Fatalf("ReadAt frame %d: err %v", i, err)
		}
		n, err := rd.ReadInto(offs[i], dst, cuts[i])
		if err != nil || n != cuts[i+1]-cuts[i] {
			t.Fatalf("ReadInto frame %d: %d rows, err %v", i, n, err)
		}
		if want := append(offs, run.Bytes)[i+1]; rd.Offset() != want {
			t.Fatalf("Offset %d after frame %d, want the next frame's %d", rd.Offset(), i, want)
		}
	}
	if !dst.Equal(rel) {
		t.Fatal("frames decoded into one destination differ from the relation written")
	}
	for name, tc := range map[string]struct {
		dst *storage.Relation
		at  int
	}{
		"too few rows left":  {dst, 700},
		"negative offset":    {dst, -1},
		"another schema":     {storage.MustNewRelation("x", storage.NewUint32("u32", make([]uint32, 900))), 0},
		"another dictionary": {newDst(900, storage.NewDict()), 0},
	} {
		if _, err := rd.ReadInto(offs[3], tc.dst, tc.at); !errors.Is(err, qerr.ErrSpillIO) {
			t.Errorf("%s: err = %v, want ErrSpillIO", name, err)
		}
	}
	if _, err := rd.ReadAt(offs[3] + 1); !errors.Is(err, qerr.ErrSpillIO) {
		t.Errorf("offset inside a frame: err = %v, want ErrSpillIO", err)
	}
}

// bitsAt is row i of c as the bit pattern its kind stores: values, codes, or
// the IEEE bits of a float, so NaNs and signed zeros compare exactly.
func bitsAt(c *storage.Column, i int) uint64 {
	switch c.Kind() {
	case storage.KindUint32, storage.KindString:
		return uint64(c.Uint32s()[i])
	case storage.KindUint64:
		return c.Uint64s()[i]
	case storage.KindInt64:
		return uint64(c.Int64s()[i])
	default:
		return math.Float64bits(c.Float64s()[i])
	}
}

// TestFrameExtremesBitExact: the edges of every kind — integer extremes,
// negative zero, both infinities, a NaN with a payload, a subnormal — come
// back bit for bit, as a fresh relation and decoded by ReadInto into the
// middle of a destination whose rows outside the window keep what they held.
func TestFrameExtremesBitExact(t *testing.T) {
	rel := storage.MustNewRelation("edges",
		storage.NewUint32("u32", []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1, 1 << 31}),
		storage.NewUint64("u64", []uint64{0, math.MaxUint64, math.MaxUint32, 1 << 63, math.MaxUint64 - 1}),
		storage.NewInt64("i64", []int64{math.MinInt64, math.MaxInt64, -1, 0, math.MinInt64 + 1}),
		storage.NewFloat64("f64", []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7ff0_0000_dead_beef), math.SmallestNonzeroFloat64}),
		storage.NewString("s", []string{"", "\x00\xff", "edge", "", "edge"}))
	d, _ := newTestDir(t, 0)
	run := writeRun(t, d, rel)
	dict := rel.MustColumn("s").Dict()
	rd, err := run.Open(map[string]*storage.Dict{"s": dict})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if nan := rel.MustColumn("f64").Float64s()[3]; !math.IsNaN(nan) {
		t.Fatal("vacuous: the payload NaN is not a NaN")
	}

	const at, rows, fill = 3, 11, 0xa5a5a5a5a5a5a5a5
	cols := make([]*storage.Column, rel.NumCols())
	for i, c := range rel.Columns() {
		if cols[i], err = storage.NewColumn(nil, c.Name(), c.Kind(), c.Dict(), rows); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			switch c.Kind() {
			case storage.KindUint32:
				cols[i].Uint32s()[r] = fill >> 32
			case storage.KindString:
				cols[i].Uint32s()[r] = 1 // a valid code
			case storage.KindUint64:
				cols[i].Uint64s()[r] = fill
			case storage.KindInt64:
				cols[i].Int64s()[r] = fill >> 1
			case storage.KindFloat64:
				cols[i].Float64s()[r] = math.Float64frombits(fill)
			}
		}
	}
	dst := storage.MustNewRelation("edges", cols...)
	before := make([][]uint64, rel.NumCols())
	for i, c := range dst.Columns() {
		for r := 0; r < rows; r++ {
			before[i] = append(before[i], bitsAt(c, r))
		}
	}
	n, err := rd.ReadInto(0, dst, at)
	if err != nil || n != rel.NumRows() {
		t.Fatalf("ReadInto: %d rows, err %v", n, err)
	}
	fresh, err := rd.ReadAt(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rel.Columns() {
		got, into := fresh.Columns()[i], dst.Columns()[i]
		for r := 0; r < rel.NumRows(); r++ {
			if w := bitsAt(want, r); bitsAt(got, r) != w || bitsAt(into, at+r) != w {
				t.Errorf("%s row %d: %#x read, %#x read into, want %#x", want.Name(), r, bitsAt(got, r), bitsAt(into, at+r), w)
			}
		}
		for r := 0; r < rows; r++ {
			if (r < at || r >= at+n) && bitsAt(into, r) != before[i][r] {
				t.Errorf("%s: destination row %d outside the window changed to %#x", want.Name(), r, bitsAt(into, r))
			}
		}
	}
}

// breakWrites makes every later write to the run file fail, after the frame
// has been charged: the file is closed under the writer's buffer.
func breakWrites(w *RunWriter) { w.f.Close() }

// TestAbortReturnsEverythingCharged: Append charges a frame to the disk
// budget before it writes it, so a writer whose n-th write fails has charged
// more than it wrote. Abort must give back all of it.
func TestAbortReturnsEverythingCharged(t *testing.T) {
	rel := everyKind(20_000) // one frame outgrows the write buffer: the failure surfaces in Append
	d, disk := newTestDir(t, 0)
	kept := writeRun(t, d, rel.Slice(0, 10))
	w, err := d.NewRun("doomed")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(rel.Slice(0, 100)); err != nil {
			t.Fatal(err)
		}
	}
	breakWrites(w)
	if err := w.Append(rel); !errors.Is(err, qerr.ErrSpillIO) {
		t.Fatalf("append to a broken file: err = %v, want ErrSpillIO", err)
	}
	if disk.Used() <= kept.Bytes {
		t.Fatal("vacuous: the failed frame was never charged")
	}
	w.Abort()
	if disk.Used() != kept.Bytes {
		t.Fatalf("after abort %d disk bytes accounted, want the kept run's %d", disk.Used(), kept.Bytes)
	}
	if err := kept.Remove(); err != nil || disk.Used() != 0 {
		t.Fatalf("remove: err %v, %d disk bytes still accounted before cleanup", err, disk.Used())
	}
}

// codecBatch is the three-column morsel the codec benchmark and the fuzz
// seeds use: a key, an aggregation input and a dictionary-coded string.
func codecBatch(n int) *storage.Relation {
	rel := everyKind(n)
	return storage.MustNewRelation("batch", rel.MustColumn("u32"), rel.MustColumn("i64"), rel.MustColumn("s"))
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader twice: as a frame
// payload (past the checksum, which random mutation rarely gets past) and as
// a whole run file. Either is a typed ErrSpillIO or a relation whose
// re-encoding decodes to the same bytes again — never a panic, and never an
// allocation out of proportion to the input (a claimed row, column or
// dictionary count is checked against the bytes present before anything is
// allocated for it).
func FuzzDecodeFrame(f *testing.F) {
	d, _ := newTestDir(f, 0)
	_, image, corrupt := corruptRuns(f, d)
	f.Add(image)
	for _, c := range corrupt {
		f.Add(c.file)
	}
	for _, rel := range []*storage.Relation{everyKind(0), everyKind(33), codecBatch(7), storage.MustNewRelation("none")} {
		frame, err := encodeFrame(nil, rel, new(map[string]bool))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeader:])
	}
	path := filepath.Join(f.TempDir(), "fuzz.dqs")

	check := func(t *testing.T, rel *storage.Relation, err error) {
		if err != nil {
			if !errors.Is(err, qerr.ErrSpillIO) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		first, err := encodeFrame(nil, rel, new(map[string]bool))
		if err != nil {
			t.Fatalf("decoded relation does not re-encode: %v", err)
		}
		back, _, err := decodeFrame(first[frameHeader:], map[string]*storage.Dict{}, map[string][]uint32{}, nil, 0)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		second, err := encodeFrame(nil, back, new(map[string]bool))
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("re-encoding does not round-trip (err %v)", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, _, err := decodeFrame(data, map[string]*storage.Dict{}, map[string][]uint32{}, nil, 0)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+1<<20); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		check(t, rel, err)

		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		rd, err := (&Run{d: d, path: path}).Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		for {
			rel, err := rd.Next()
			if rel == nil && err == nil {
				return
			}
			if check(t, rel, err); err != nil {
				return
			}
		}
	})
}

// BenchmarkFrameCodec prices the frame codec on a 4 096-row morsel of three
// columns: decode allocates the column slices and nothing per value, decode
// into a caller-owned relation only the names it compares.
func BenchmarkFrameCodec(b *testing.B) {
	rel := codecBatch(4096)
	frame, err := encodeFrame(nil, rel, new(map[string]bool))
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[frameHeader:] // the run's first frame, dictionary included
	dicts := map[string]*storage.Dict{"s": rel.MustColumn("s").Dict()}
	remaps := map[string][]uint32{}
	dst, _, err := decodeFrame(payload, dicts, remaps, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(rel.MemBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	written := map[string]bool{"s": true} // a run's later frames: the dictionary went out with the first
	run("encode", func() error {
		frame, err = encodeFrame(frame[:0], rel, &written)
		return err
	})
	payload = frame[frameHeader:]
	run("decode", func() error {
		_, _, err := decodeFrame(payload, dicts, remaps, nil, 0)
		return err
	})
	run("decode-into", func() error {
		_, _, err := decodeFrame(payload, dicts, remaps, dst, 0)
		return err
	})
}
