// Package spill provides budget-accounted temp-file runs for operators that
// outgrow their memory budget: a per-query Dir of run files, a RunWriter
// that serialises relation batches into CRC-checksummed frames, and a
// RunReader that reads them back, in order or by offset. Every byte written
// is charged against the query's disk budget (qerr.ErrSpillLimitExceeded past
// the limit), every I/O failure surfaces as a typed qerr.ErrSpillIO, and
// Dir.Cleanup removes the whole directory no matter how the query ended — the
// executor calls it from the drive loop's deferred close path, so cancelled
// and panicking queries leak neither files nor descriptors.
//
// Frame format, one frame per appended batch. Headers, names and counts are
// little-endian; column values are in host byte order, since a run is only
// ever read by the process that wrote it:
//
//	magic   uint32  "DQSP"
//	length  uint32  payload bytes
//	crc32   uint32  IEEE checksum of the payload
//	payload (a string is len uint32, then its bytes):
//	  relation name string, ncols uint32, nrows uint32
//	  per column:
//	    kind uint8, hasDict uint8, name string
//	    [hasDict: ndict uint32, then ndict strings]
//	    raw values (uint32/codes: 4 B per row; 64-bit kinds: 8 B per row)
//
// A column's values are one window of words, moved with one copy each way:
// the writer appends the column's bytes, and the reader copies them into a
// fresh column or straight into the rows of a relation the caller allocated
// (ReadInto). Every check stays on the reader: the magic, the length against
// the file, the checksum, truncation, the destination's schema and the range
// of every dictionary code.
//
// A run is a sequence of frames, and a frame is addressed by the offset
// RunWriter.BytesWritten reported before it was appended. That lets one file
// hold several interleaved streams: a partitioned operator appends all its
// partitions' frames to one run, keeps each partition's offsets (its extents)
// in memory, and reads a partition back by ReadAt/ReadInto on those offsets,
// so it creates one file per partition set, not one per partition. The file's
// bytes stay charged to the disk budget until Run.Remove (or Cleanup).
//
// A run file is opened once, read-write, by Dir.NewRun. The Run keeps that
// descriptor and its readers borrow it, so reading a run back opens nothing;
// RunWriter.Abort, Run.Remove and Dir.Cleanup close it.
//
// A dictionary is serialised in full (all codes in order) the first time a
// string column appears in a run; readers re-intern it into the caller's
// dictionary pool so reconstructed columns keep the original code
// assignment — dictionary codes order sorts and groupings, so code fidelity
// is what makes spilled plans byte-identical to in-memory ones. A reader that
// goes by offset may never see that first frame: it must be opened on a pool
// that already holds the column's dictionary.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

const frameMagic uint32 = 0x44515350 // "DQSP"

// Dir is a per-query spill directory: it hands out run files, accounts
// their bytes against the query's disk budget, and removes everything on
// Cleanup. Safe for concurrent use.
type Dir struct {
	path    string
	ctl     *govern.Ctl // disk-budget account (nil-safe)
	mu      sync.Mutex
	nextID  int
	live    int64 // bytes currently on disk (released on run removal)
	written atomic.Int64
	removed bool
	files   map[*os.File]bool // descriptors of runs not yet removed; Cleanup closes them
}

// NewDir creates a fresh spill directory under parent (os.TempDir() when
// empty), charging disk bytes against ctl's disk budget.
func NewDir(parent string, ctl *govern.Ctl) (*Dir, error) {
	if parent == "" {
		parent = os.TempDir()
	}
	path, err := os.MkdirTemp(parent, "dqo-spill-*")
	if err != nil {
		return nil, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	return &Dir{path: path, ctl: ctl}, nil
}

// Path reports the directory holding this query's run files.
func (d *Dir) Path() string { return d.path }

// Written reports the total bytes ever written to this directory's runs
// (monotonic; removal of a run does not subtract).
func (d *Dir) Written() int64 {
	if d == nil {
		return 0
	}
	return d.written.Load()
}

// Cleanup removes the spill directory and everything in it, releasing the
// disk-budget bytes still accounted to live runs. It is idempotent; the
// first failure is reported as a typed qerr.ErrSpillIO.
func (d *Dir) Cleanup() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil
	}
	d.removed = true
	d.ctl.ReleaseDisk(d.live)
	d.live = 0
	for f := range d.files {
		f.Close()
	}
	d.files = nil
	if err := faultinject.Fire(faultinject.PointSpillCleanup); err != nil {
		os.RemoveAll(d.path) // injected failure still must not leak files
		return qerr.Wrap(qerr.ErrSpillIO, err)
	}
	if err := os.RemoveAll(d.path); err != nil {
		return qerr.Wrap(qerr.ErrSpillIO, err)
	}
	return nil
}

// NewRun opens a fresh run file for writing and, once finished, reading. The
// label only names the file for post-mortem inspection of a kept spill
// directory.
func (d *Dir) NewRun(label string) (*RunWriter, error) {
	d.mu.Lock()
	if d.removed {
		d.mu.Unlock()
		return nil, errCleanedUp()
	}
	id := d.nextID
	d.nextID++
	d.mu.Unlock()
	name := filepath.Join(d.path, fmt.Sprintf("run-%04d-%s.dqs", id, sanitize(label)))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed { // a Cleanup ran meanwhile and would not close f
		f.Close()
		os.Remove(name)
		return nil, errCleanedUp()
	}
	if d.files == nil {
		d.files = make(map[*os.File]bool)
	}
	d.files[f] = true
	return &RunWriter{d: d, f: f, w: bufio.NewWriterSize(f, 64<<10), path: name}, nil
}

func errCleanedUp() error {
	return qerr.New(qerr.ErrSpillIO, "spill directory already cleaned up")
}

// close closes a run's descriptor unless Cleanup (or an earlier close) has
// already closed it.
func (d *Dir) close(f *os.File) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.files[f] {
		return nil
	}
	delete(d.files, f)
	return f.Close()
}

func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) > 32 {
		b = b[:32]
	}
	return string(b)
}

// account charges freshly written bytes to the disk budget and the
// directory's live total.
func (d *Dir) account(n int64) error {
	if err := d.ctl.ReserveDisk(n); err != nil {
		return err
	}
	d.mu.Lock()
	d.live += n
	d.mu.Unlock()
	d.written.Add(n)
	return nil
}

// forget releases removed-run bytes back to the disk budget.
func (d *Dir) forget(n int64) {
	d.mu.Lock()
	if d.removed {
		d.mu.Unlock()
		return // Cleanup already released everything
	}
	d.live -= n
	d.mu.Unlock()
	d.ctl.ReleaseDisk(n)
}

// RunWriter serialises relation batches into one run file. Not safe for
// concurrent use.
type RunWriter struct {
	d     *Dir
	f     *os.File
	w     *bufio.Writer
	path  string
	bytes int64 // bytes charged to the disk budget (written, or failed mid-write)
	rows  int64
	dicts map[string]bool // columns whose dictionary is already in this run
	buf   []byte
}

// Append serialises rel as one checksummed frame at the end of the run,
// charging the frame bytes against the disk budget first. The frame starts at
// the BytesWritten offset of before the call.
func (w *RunWriter) Append(rel *storage.Relation) error {
	frame, err := encodeFrame(w.buf[:0], rel, &w.dicts)
	w.buf = frame
	if err != nil {
		return err
	}
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:], frameMagic)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	if err := w.d.account(int64(len(frame))); err != nil {
		return err
	}
	w.bytes += int64(len(frame))
	if err := faultinject.Fire(faultinject.PointSpillWrite); err != nil {
		return qerr.Wrap(qerr.ErrSpillIO, err)
	}
	if n, err := w.w.Write(frame); err != nil {
		return qerr.Wrap(qerr.ErrSpillIO, err)
	} else if n != len(frame) {
		return qerr.New(qerr.ErrSpillIO, "short write: %d of %d bytes", n, len(frame))
	}
	w.rows += int64(rel.NumRows())
	return nil
}

// BytesWritten reports the run bytes written so far (frames + headers): the
// offset the next frame starts at.
func (w *RunWriter) BytesWritten() int64 { return w.bytes }

// Finish flushes the run file and returns a handle for reading it back, which
// takes over the file's descriptor.
func (w *RunWriter) Finish() (*Run, error) {
	if err := w.w.Flush(); err != nil {
		w.d.close(w.f)
		return nil, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	return &Run{d: w.d, f: w.f, path: w.path, Bytes: w.bytes, Rows: w.rows}, nil
}

// Abort closes and deletes a half-written run, returning every byte it
// charged — a frame whose write failed included — to the disk budget.
func (w *RunWriter) Abort() {
	w.d.close(w.f)
	os.Remove(w.path)
	w.d.forget(w.bytes)
	w.bytes = 0
}

// Run is a finished, readable run file.
type Run struct {
	d     *Dir
	f     *os.File // the writer's descriptor, which readers borrow; nil for a run image opened by path
	path  string
	Bytes int64
	Rows  int64
}

// Open returns a reader over the run's frames. Readers reconstruct string
// columns through dicts, a pool keyed by column name: seeding it with the
// original columns' dictionaries makes decoded batches share those exact
// dictionary objects (and code assignment), which keeps spilled results
// byte-identical and lets storage.Concat take its shared-dictionary fast
// path. A nil pool re-interns per run. Any number of readers may be open on
// one run; they share its descriptor.
func (r *Run) Open(dicts map[string]*storage.Dict) (*RunReader, error) {
	f, own := r.f, false
	if f == nil { // a run file no writer of this Dir handed over
		var err error
		if f, err = os.Open(r.path); err != nil {
			return nil, qerr.Wrap(qerr.ErrSpillIO, err)
		}
		own = true
	}
	st, err := f.Stat()
	if err != nil {
		if own {
			f.Close()
		}
		return nil, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	if dicts == nil {
		dicts = make(map[string]*storage.Dict)
	}
	return &RunReader{f: f, own: own, size: st.Size(), dicts: dicts, remaps: make(map[string][]uint32)}, nil
}

// Remove deletes the run file early (before Cleanup), closing its descriptor
// and releasing its bytes from the disk budget so long-running queries return
// spill space as merge passes retire their inputs.
func (r *Run) Remove() error {
	var cerr error
	if r.f != nil {
		cerr = r.d.close(r.f)
		r.f = nil
	}
	if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) {
		return qerr.Wrap(qerr.ErrSpillIO, err)
	}
	r.d.forget(r.Bytes)
	r.Bytes = 0
	if cerr != nil {
		return qerr.Wrap(qerr.ErrSpillIO, cerr)
	}
	return nil
}

// RunReader reads a run's frames back: in file order with Next, or by the
// offset the writer reported with ReadAt / ReadInto. Not safe for concurrent
// use.
type RunReader struct {
	f      *os.File
	own    bool  // f was opened for this reader alone, not borrowed from its run
	size   int64 // file bytes; bounds a frame's claimed length
	off    int64 // end of the frame read last: where Next continues
	dicts  map[string]*storage.Dict
	remaps map[string][]uint32
	buf    []byte
}

// Next returns the run's next batch, or (nil, nil) once the run is
// exhausted. A corrupt frame (bad magic or checksum mismatch) is a typed
// qerr.ErrSpillIO.
func (r *RunReader) Next() (*storage.Relation, error) {
	if r.off == r.size {
		return nil, nil
	}
	return r.ReadAt(r.off)
}

// Offset reports where the frame after the one read last starts: the offset
// Next reads at, and the run's size once every frame has been read in order.
func (r *RunReader) Offset() int64 { return r.off }

// ReadAt returns the frame that starts at byte off of the run as a fresh
// relation.
func (r *RunReader) ReadAt(off int64) (*storage.Relation, error) {
	rel, _, err := r.read(off, nil, 0)
	return rel, err
}

// ReadInto decodes the frame that starts at byte off straight into rows
// [at, at+n) of the caller-owned dst, which must have the frame's schema (and,
// for string columns, the dictionaries of the reader's pool), and returns n.
func (r *RunReader) ReadInto(off int64, dst *storage.Relation, at int) (int, error) {
	_, n, err := r.read(off, dst, at)
	return n, err
}

func (r *RunReader) read(off int64, dst *storage.Relation, at int) (*storage.Relation, int, error) {
	if err := faultinject.Fire(faultinject.PointSpillRead); err != nil {
		return nil, 0, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	var hdr [frameHeader]byte
	if _, err := r.f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	off += frameHeader
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	// The length is not covered by the checksum: check it against what the
	// file still holds before allocating a buffer of that size.
	if int64(n) > r.size-off {
		return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: length %d, but %d bytes left in the run", n, r.size-off)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n+n/8) // frames of a run are near one size: regrow rarely
	}
	payload := r.buf[:n]
	if _, err := r.f.ReadAt(payload, off); err != nil {
		return nil, 0, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[8:]); got != want {
		return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: checksum %#x, want %#x", got, want)
	}
	r.off = off + int64(n)
	return decodeFrame(payload, r.dicts, r.remaps, dst, at)
}

// Close ends the reader. The descriptor it borrowed stays with the run.
func (r *RunReader) Close() error {
	if !r.own {
		return nil
	}
	if err := r.f.Close(); err != nil {
		return qerr.Wrap(qerr.ErrSpillIO, err)
	}
	return nil
}
