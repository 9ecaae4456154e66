package exec

// Spill-capable breaker twins: external merge sort, grace hash join, and
// spilling hash aggregation. Each is the disk-backed sibling of an
// in-memory breaker kernel, chosen by the optimiser only when no in-memory
// variant fits Mode.MemBudget, and each is byte-identical to its twin:
//
//   - SpillSort writes stably sorted runs and k-way merges them with a
//     (key, run order) tie-break — since the in-memory argsort is stable for
//     every sort kind, the merged output IS the stable full sort. The merge
//     decides on keys alone and copies whole column windows.
//   - SpillJoin numbers each side's rows by global input ordinal,
//     hash-partitions both sides to disk, joins partition pairs serially, and
//     restores the serial hash join's emission order — (probe row ascending,
//     build row descending: the multimap's reverse-build-order emission
//     contract) — with one radix sort over the pair outputs' ordinals.
//   - SpillGroup hash-partitions its input (keys are partition-complete, so
//     per-partition aggregates are exact), reuses the serial chained-hash
//     aggregation kernel per partition, and reorders the merged groups by
//     each key's first-occurrence ordinal — found by one forward walk per
//     partition, ordered by one radix sort — reproducing the chained table's
//     first-seen iteration order.
//
// The twins move columns, not values: a partition set scatters each batch
// column by column into per-partition buffers and writes a buffer as one
// frame of the set's one run file; a partition is read back by its frame
// offsets straight into a relation allocated once at its known size.
//
// All three buffer in memory up to the govern spill grant and only touch
// disk past it, so a query whose data fits never pays a single write
// (and never creates the spill directory). Partitions that still exceed
// the grant recurse — re-partitioning on a different hash-bit window —
// down to a fixed depth cap.

import (
	"fmt"
	"sync/atomic"

	"dqo/internal/expr"
	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/spill"
	"dqo/internal/storage"
)

const (
	spillFanIn    = 8                  // runs merged per external-sort pass
	spillPartBits = 4                  // log2 of the partition fan-out
	spillParts    = 1 << spillPartBits // partitions per recursion level
	spillMaxDepth = 4                  // recursion cap: 4 levels * 4 bits = 16 hash bits

	// The tag column carries each input row's global ordinal through
	// partitioning, so partitioned operators can reconstruct the exact
	// serial emission order. Two names, so a join's sides never clash.
	rowTagL = "__dqo_lrow"
	rowTagR = "__dqo_rrow"
)

// spillBucket assigns a key to a partition. Each recursion level consumes a
// distinct window of the Fibonacci-hashed key, so a skewed partition is
// actually split by re-partitioning rather than re-dealt identically.
func spillBucket(key uint32, level int) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	shift := uint(64 - spillPartBits*(level+1))
	return int((h >> shift) & (spillParts - 1))
}

// seedDicts returns a dictionary pool pre-seeded with a relation's own
// dictionaries, so batches decoded from disk share the original dictionary
// objects and code assignment (see spill.Run.Open).
func seedDicts(rel *storage.Relation) map[string]*storage.Dict {
	pool := make(map[string]*storage.Dict)
	for _, c := range rel.Columns() {
		if d := c.Dict(); d != nil {
			pool[c.Name()] = d
		}
	}
	return pool
}

// resv couples an operator's held-bytes counter to the labelled governance
// handle: grab reserves and raises the operator's peak, drop releases. The
// operator's Close still releases the whole counter at once, so error and
// panic paths cannot leak reservations.
type resv struct {
	ctl  *govern.Ctl
	held *int64
	b    *base
}

func (r *resv) grab(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := r.ctl.Reserve(n); err != nil {
		return err
	}
	r.b.peak(atomic.AddInt64(r.held, n))
	return nil
}

func (r *resv) drop(n int64) {
	if n <= 0 {
		return
	}
	r.ctl.Release(n)
	atomic.AddInt64(r.held, -n)
}

// ---------------------------------------------------------------------------
// Column windows: the spill paths fill relations they allocated themselves,
// one typed loop per column, before anyone else sees them.

// rowBytes is the column-data footprint of one row of schema.
func rowBytes(schema *storage.Relation) int64 {
	var n int64
	for _, c := range schema.Columns() {
		if k := c.Kind(); k == storage.KindUint32 || k == storage.KindString {
			n += 4
		} else {
			n += 8
		}
	}
	return n
}

// allocLike returns a relation of n zeroed rows with schema's column names,
// kinds and dictionaries.
func allocLike(schema *storage.Relation, n int) (*storage.Relation, error) {
	cols := make([]*storage.Column, schema.NumCols())
	for i, c := range schema.Columns() {
		var err error
		if cols[i], err = storage.NewColumn(c.Name(), c.Kind(), c.Dict(), n); err != nil {
			return nil, qerr.Wrap(qerr.ErrInternal, err)
		}
	}
	return storage.NewRelation(schema.Name(), cols...)
}

// copyRows copies the first n rows of src into rows [at, at+n) of dst.
func copyRows(dst *storage.Relation, at int, src *storage.Relation, n int) {
	for c, d := range dst.Columns() {
		s := src.Columns()[c]
		switch d.Kind() {
		case storage.KindUint32, storage.KindString:
			copy(d.Uint32s()[at:], s.Uint32s()[:n])
		case storage.KindUint64:
			copy(d.Uint64s()[at:], s.Uint64s()[:n])
		case storage.KindInt64:
			copy(d.Int64s()[at:], s.Int64s()[:n])
		case storage.KindFloat64:
			copy(d.Float64s()[at:], s.Float64s()[:n])
		}
	}
}

// ---------------------------------------------------------------------------
// SpillSort: external merge sort.

// SpillSort sorts its input by a uint32 key column with bounded working
// memory: batches buffer up to the spill grant, each overflow is stably
// sorted and written as a run, and the runs are k-way merged (recursively,
// above the fan-in) with a (key, run order) tie-break. Output is
// byte-identical to the serial in-memory sort for every sort kind, because
// the in-memory argsort is stable and the runs partition the input in
// order.
type SpillSort struct {
	base
	child Operator
	key   string
	kind  sortx.Kind
	out   *storage.Relation
	pos   int
	held  int64
	runs  []*spill.Run
	tmpl  *storage.Relation
}

// NewSpillSort returns an external merge sort of child by key.
func NewSpillSort(label Labeler, child Operator, key string, kind sortx.Kind) *SpillSort {
	return &SpillSort{base: base{label: label}, child: child, key: key, kind: kind}
}

// Open implements Operator.
func (s *SpillSort) Open(ec *ExecContext) error {
	s.out, s.pos, s.runs, s.tmpl = nil, 0, nil, nil
	s.stats.DOP = 1
	return s.child.Open(ec)
}

// Next implements Operator.
func (s *SpillSort) Next(ec *ExecContext) (*storage.Relation, error) {
	defer s.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if s.out == nil {
		if err := s.materialize(ec); err != nil {
			return nil, err
		}
	}
	return emitChunk(ec, &s.base, s.out, &s.pos)
}

// Close implements Operator.
func (s *SpillSort) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&s.held, 0))
	s.runs = nil // files die with the query's spill.Dir
	return s.child.Close(ec)
}

// Children implements Operator.
func (s *SpillSort) Children() []Operator { return []Operator{s.child} }

func (s *SpillSort) materialize(ec *ExecContext) error {
	rv := &resv{ctl: ec.CtlFor(s), held: &s.held, b: &s.base}
	quota := ec.SpillQuota()
	var parts []*storage.Relation
	var bufBytes, rows int64

	flush := func() error {
		if bufBytes == 0 {
			return nil
		}
		// The run sort gathers a sorted copy of the buffer: charge it for
		// the duration of the write.
		if err := rv.grab(bufBytes); err != nil {
			return err
		}
		in, err := storage.Concat(parts)
		if err != nil {
			return err
		}
		sorted, err := physical.SortRel(in, s.key, s.kind)
		if err != nil {
			return err
		}
		run, err := s.writeRun(ec, sorted)
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.addSpill(run.Bytes, 1, 0)
		freed := bufBytes
		parts, bufBytes = parts[:0], 0
		rv.drop(2 * freed) // buffered batches + the sorted copy
		return nil
	}

	for {
		if err := ec.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire(faultinject.PointExecDrainBatch); err != nil {
			return err
		}
		batch, err := s.child.Next(ec)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		ec.Counters.tick(batch.NumRows())
		rows += int64(batch.NumRows())
		if s.tmpl == nil {
			s.tmpl = batch
		}
		if batch.NumRows() == 0 {
			continue
		}
		n := batch.MemBytes()
		if bufBytes > 0 && bufBytes+n > quota {
			if err := flush(); err != nil {
				return err
			}
		}
		if err := rv.grab(n); err != nil {
			// Memory pressure before the proactive quota: flush and retry once.
			if ferr := flush(); ferr != nil {
				return ferr
			}
			if err := rv.grab(n); err != nil {
				return err
			}
		}
		parts = append(parts, batch)
		bufBytes += n
	}
	s.addRowsIn(rows)
	if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
		return err
	}
	if s.tmpl == nil {
		return qerr.New(qerr.ErrInternal, "spill sort: no input schema")
	}

	if len(s.runs) == 0 {
		// Everything fit in the grant: the in-memory twin, exactly.
		in, err := storage.Concat(orSchema(parts, s.tmpl))
		if err != nil {
			return err
		}
		out, err := physical.SortRel(in, s.key, s.kind)
		if err != nil {
			return err
		}
		rv.drop(bufBytes)
		if err := rv.grab(out.MemBytes()); err != nil {
			return err
		}
		s.out = out
		return nil
	}

	if err := flush(); err != nil { // tail
		return err
	}
	out, err := s.merge(ec, rv)
	if err != nil {
		return err
	}
	s.out = out
	return nil
}

// writeRun streams a sorted relation into a fresh run in morsel-sized
// frames, bounding the memory a merge cursor needs to read it back.
func (s *SpillSort) writeRun(ec *ExecContext, sorted *storage.Relation) (*spill.Run, error) {
	dir, err := ec.Spill()
	if err != nil {
		return nil, err
	}
	w, err := dir.NewRun(s.Label())
	if err != nil {
		return nil, err
	}
	n := sorted.NumRows()
	for lo := 0; lo == 0 || lo < n; lo += ec.MorselSize {
		if err := w.Append(sorted.Slice(lo, min(lo+ec.MorselSize, n))); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// sortCursor streams one sorted run during a merge through a frame-sized
// window it owns: the current frame's keys, the next row to merge (pos) and
// the row the pending selection starts at (from).
type sortCursor struct {
	run       *spill.Run
	rd        *spill.RunReader
	batch     *storage.Relation // morsel-sized: no frame of a run is larger
	keys      []uint32
	pos, from int
	done      bool
}

func (c *sortCursor) advance(key string) error {
	c.keys, c.pos, c.from = nil, 0, 0
	for len(c.keys) == 0 { // an empty frame carries only the schema
		if c.rd.Offset() == c.run.Bytes {
			c.done = true
			return nil
		}
		n, err := c.rd.ReadInto(c.rd.Offset(), c.batch, 0)
		if err != nil {
			return err
		}
		c.keys = c.batch.MustColumn(key).Uint32s()[:n]
	}
	return nil
}

// merge k-way merges s.runs down to the final in-memory output, doing
// intermediate disk-to-disk passes while the run count exceeds the fan-in.
func (s *SpillSort) merge(ec *ExecContext, rv *resv) (*storage.Relation, error) {
	runs := s.runs
	passes := int64(1)
	for len(runs) > spillFanIn {
		var next []*spill.Run
		for lo := 0; lo < len(runs); lo += spillFanIn {
			hi := min(lo+spillFanIn, len(runs))
			merged, err := s.mergeToDisk(ec, runs[lo:hi])
			if err != nil {
				return nil, err
			}
			for _, r := range runs[lo:hi] {
				if err := r.Remove(); err != nil {
					return nil, err
				}
			}
			next = append(next, merged)
		}
		runs = next
		passes++
	}
	s.addSpill(0, 0, passes)

	// The output is allocated, and reserved, once at its final size.
	var total int64
	for _, r := range runs {
		total += r.Rows
	}
	if err := rv.grab(total * rowBytes(s.tmpl)); err != nil {
		return nil, err
	}
	out, err := allocLike(s.tmpl, int(total))
	if err != nil {
		return nil, err
	}
	n, err := s.mergeRuns(ec, runs, out, nil)
	if err == nil && n != total {
		err = qerr.New(qerr.ErrInternal, "spill sort: merged %d rows of %d", n, total)
	}
	return out, err
}

func (s *SpillSort) mergeToDisk(ec *ExecContext, runs []*spill.Run) (*spill.Run, error) {
	dir, err := ec.Spill()
	if err != nil {
		return nil, err
	}
	out, err := allocLike(s.tmpl, ec.MorselSize)
	if err != nil {
		return nil, err
	}
	w, err := dir.NewRun(s.Label() + "-merge")
	if err != nil {
		return nil, err
	}
	if _, err = s.mergeRuns(ec, runs, out, w.Append); err != nil {
		w.Abort()
		return nil, err
	}
	run, err := w.Finish()
	if err != nil {
		return nil, err
	}
	s.addSpill(run.Bytes, 1, 0)
	return run, nil
}

// mergeRuns streams the stable k-way merge of at most spillFanIn sorted runs
// through out and returns the rows merged. Ties break by run order, which —
// runs partitioning the input in order, each stably sorted — reproduces the
// stable full sort. The merge decides on keys alone: it records which run
// each output row comes from (a run's rows leave in order, so the run number
// is the whole selection) and, whenever a cursor's frame runs out or the
// window fills, copies that window column by column. With an emit, out is a
// window handed on each time it fills (and once more for the rest) and
// overwritten after; without, out must hold every row.
func (s *SpillSort) mergeRuns(ec *ExecContext, runs []*spill.Run, out *storage.Relation, emit func(*storage.Relation) error) (int64, error) {
	dicts := seedDicts(s.tmpl)
	cursors := make([]*sortCursor, 0, len(runs))
	defer func() {
		for _, c := range cursors {
			c.rd.Close()
		}
	}()
	for _, r := range runs {
		rd, err := r.Open(dicts)
		if err != nil {
			return 0, err
		}
		c := &sortCursor{run: r, rd: rd}
		cursors = append(cursors, c)
		if c.batch, err = allocLike(s.tmpl, ec.MorselSize); err != nil {
			return 0, err
		}
		if err := c.advance(s.key); err != nil {
			return 0, err
		}
	}
	var merged int64
	room, at := out.NumRows(), 0
	sel := make([]uint8, 0, min(room, ec.MorselSize))
	for {
		best := -1
		var bestKey uint32
		for i, c := range cursors {
			if !c.done && (best == -1 || c.keys[c.pos] < bestKey) {
				best, bestKey = i, c.keys[c.pos]
			}
		}
		if best == -1 {
			break
		}
		if at+len(sel) == room {
			return 0, qerr.New(qerr.ErrInternal, "spill sort: runs hold more than the %d rows they declared", room)
		}
		c := cursors[best]
		sel = append(sel, uint8(best))
		c.pos++
		exhausted := c.pos == len(c.keys)
		if !exhausted && len(sel) < cap(sel) && at+len(sel) < room {
			continue
		}
		if err := ec.Err(); err != nil {
			return 0, err
		}
		selectRows(out, at, sel, cursors)
		at, merged, sel = at+len(sel), merged+int64(len(sel)), sel[:0]
		if exhausted {
			if err := c.advance(s.key); err != nil {
				return 0, err
			}
		}
		if at == room && emit != nil {
			if err := emit(out); err != nil {
				return 0, err
			}
			at = 0
		}
	}
	if at > 0 && emit != nil {
		return merged, emit(out.Slice(0, at))
	}
	return merged, nil
}

// selectRows copies the rows sel names — one run number per output row, each
// cursor's rows taken in order from its from mark — into out from row at, one
// typed loop per column, and moves the marks up.
func selectRows(out *storage.Relation, at int, sel []uint8, cursors []*sortCursor) {
	for c, col := range out.Columns() {
		switch col.Kind() {
		case storage.KindUint32, storage.KindString:
			selectCol(col.Uint32s()[at:], sel, cursors, c, (*storage.Column).Uint32s)
		case storage.KindUint64:
			selectCol(col.Uint64s()[at:], sel, cursors, c, (*storage.Column).Uint64s)
		case storage.KindInt64:
			selectCol(col.Int64s()[at:], sel, cursors, c, (*storage.Column).Int64s)
		case storage.KindFloat64:
			selectCol(col.Float64s()[at:], sel, cursors, c, (*storage.Column).Float64s)
		}
	}
	for _, cu := range cursors {
		cu.from = cu.pos
	}
}

func selectCol[T any](dst []T, sel []uint8, cursors []*sortCursor, c int, data func(*storage.Column) []T) {
	var src [spillFanIn][]T
	for i, cu := range cursors {
		if !cu.done {
			src[i] = data(cu.batch.Columns()[c])[cu.from:]
		}
	}
	var pos [spillFanIn]int
	for o, r := range sel {
		dst[o] = src[r][pos[r]]
		pos[r]++
	}
}

// ---------------------------------------------------------------------------
// Partitioned spilling, shared by grace join and spilling aggregation.

// partitionSet fans one input out into spillParts hash partitions. Every
// partition has a column-wise append buffer — the input's columns plus each
// row's global input ordinal as a last column named tag — that batches are
// scattered into directly. Once the buffered bytes pass the spill grant every
// buffer is appended, as one frame, to the set's single run file and the
// frame's offset joins the partition's extent list, so a partition's extents
// in order plus its buffered tail always hold its rows in global input order.
// The file is removed when the last partition has been retired.
type partitionSet struct {
	rv       *resv
	sets     *[]*partitionSet // the owning operator's list of sets to abort on Close
	label    string
	key      string
	tag      string
	level    int
	quota    int64
	schema   *storage.Relation // zero rows: the input's columns, then the tag
	keyCol   int
	rowB     int64 // bytes reserved per buffered row
	dicts    map[string]*storage.Dict
	next     uint32 // ordinal of the next untagged input row
	bufs     [spillParts]*storage.Relation
	fill     [spillParts]int     // rows buffered in bufs[p]
	rows     [spillParts]int64   // rows dealt to p, on disk or buffered
	extents  [spillParts][]int64 // p's frame offsets in the run file, in write order
	bucket   []uint8             // scratch: the partition of each row of a batch
	bufTotal int64
	w        *spill.RunWriter
	run      *spill.Run
	rd       *spill.RunReader
	left     int // partitions not yet retired
}

// newPartitionSet returns an empty set, registered in sets.
func newPartitionSet(rv *resv, sets *[]*partitionSet, label, key, tag string, level int, quota int64) *partitionSet {
	ps := &partitionSet{rv: rv, sets: sets, label: label, key: key, tag: tag, level: level, quota: quota, left: spillParts}
	*sets = append(*sets, ps)
	return ps
}

// setSchema fixes the buffers' schema: the input's columns plus the tag.
func (ps *partitionSet) setSchema(input *storage.Relation) error {
	if _, ok := input.Column(ps.tag); ok {
		return qerr.New(qerr.ErrInternal, "spill: input already has reserved column %q", ps.tag)
	}
	// Keys are uint32 codes: values, or dictionary codes — what every
	// grouping and join kernel operates on.
	ps.keyCol = -1
	for i, c := range input.Columns() {
		if k := c.Kind(); c.Name() == ps.key && (k == storage.KindUint32 || k == storage.KindString) {
			ps.keyCol = i
		}
	}
	if ps.keyCol < 0 {
		return qerr.New(qerr.ErrInternal, "spill: no uint32 or string key column %q", ps.key)
	}
	cols := append(input.Slice(0, 0).Columns(), storage.NewUint32(ps.tag, nil))
	schema, err := storage.NewRelation(input.Name(), cols...)
	if err != nil {
		return err
	}
	ps.schema, ps.rowB, ps.dicts = schema, rowBytes(schema), seedDicts(schema)
	return nil
}

// add scatters a batch across the partition buffers — histogram, room, then
// one typed pass per column — and flushes them all once the set's buffered
// total passes the grant. Rows are numbered next, next+1, … unless the batch
// is tagged already: a re-dealt partition, whose last column carries its rows'
// ordinals.
func (ps *partitionSet) add(ec *ExecContext, batch *storage.Relation, tagged bool) error {
	n := batch.NumRows()
	if n == 0 {
		return nil
	}
	if ps.schema == nil {
		if err := ps.setSchema(batch); err != nil {
			return err
		}
	}
	need := int64(n) * ps.rowB
	if ps.rv.grab(need) != nil {
		// Memory pressure before the grant: flush and retry once.
		if err := ps.flush(ec); err != nil {
			return err
		}
		if err := ps.rv.grab(need); err != nil {
			return err
		}
	}
	ps.bufTotal += need

	if cap(ps.bucket) < n {
		ps.bucket = make([]uint8, n)
	}
	ps.bucket = ps.bucket[:n]
	var count [spillParts]int
	for i, k := range batch.Columns()[ps.keyCol].Uint32s() {
		p := spillBucket(k, ps.level)
		ps.bucket[i] = uint8(p)
		count[p]++
	}
	for p, c := range count {
		if need := ps.fill[p] + c; c > 0 && (ps.bufs[p] == nil || ps.bufs[p].NumRows() < need) {
			// A first buffer holds an even share of the grant and of the
			// batch that overshoots it, plus an eighth for chance: uniform
			// keys never regrow it.
			even := (int(ps.quota/ps.rowB) + n) / spillParts
			grown, err := allocLike(ps.schema, max(need, 2*ps.fill[p], even+even/8))
			if err != nil {
				return err
			}
			if ps.fill[p] > 0 {
				copyRows(grown, 0, ps.bufs[p], ps.fill[p])
			}
			ps.bufs[p] = grown
		}
		ps.rows[p] += int64(c)
	}
	for c, col := range batch.Columns() {
		switch col.Kind() {
		case storage.KindUint32, storage.KindString:
			scatterCol(ps, c, col.Uint32s(), (*storage.Column).Uint32s)
		case storage.KindUint64:
			scatterCol(ps, c, col.Uint64s(), (*storage.Column).Uint64s)
		case storage.KindInt64:
			scatterCol(ps, c, col.Int64s(), (*storage.Column).Int64s)
		case storage.KindFloat64:
			scatterCol(ps, c, col.Float64s(), (*storage.Column).Float64s)
		}
	}
	if !tagged {
		var dst [spillParts][]uint32
		for p, b := range ps.bufs {
			if b != nil {
				dst[p] = b.Columns()[ps.schema.NumCols()-1].Uint32s()
			}
		}
		pos := ps.fill
		for i, p := range ps.bucket {
			dst[p][pos[p]] = ps.next + uint32(i)
			pos[p]++
		}
		ps.next += uint32(n)
	}
	for p, c := range count {
		ps.fill[p] += c
	}
	if ps.bufTotal > ps.quota {
		return ps.flush(ec)
	}
	return nil
}

// scatterCol deals one column of a batch into column c of the partition
// buffers, each row to the next free slot of the partition ps.bucket names.
func scatterCol[T any](ps *partitionSet, c int, src []T, data func(*storage.Column) []T) {
	var dst [spillParts][]T
	for p, b := range ps.bufs {
		if b != nil {
			dst[p] = data(b.Columns()[c])
		}
	}
	pos := ps.fill
	for i, p := range ps.bucket {
		dst[p][pos[p]] = src[i]
		pos[p]++
	}
}

// flush appends every non-empty buffer to the run file as one frame and
// releases the buffers' reservations; the buffers themselves stay, empty, for
// the next batches.
func (ps *partitionSet) flush(ec *ExecContext) error {
	if ps.bufTotal == 0 {
		return nil
	}
	if ps.w == nil {
		dir, err := ec.Spill()
		if err != nil {
			return err
		}
		if ps.w, err = dir.NewRun(fmt.Sprintf("%s-l%d", ps.label, ps.level)); err != nil {
			return err
		}
	}
	for p, n := range ps.fill {
		if n == 0 {
			continue
		}
		if len(ps.extents[p]) == 0 {
			ps.rv.b.addSpill(0, 1, 0)
		}
		off := ps.w.BytesWritten()
		if err := ps.w.Append(ps.bufs[p].Slice(0, n)); err != nil {
			return err
		}
		ps.rv.b.addSpill(ps.w.BytesWritten()-off, 0, 0)
		ps.extents[p] = append(ps.extents[p], off)
		ps.rv.drop(int64(n) * ps.rowB)
		ps.fill[p] = 0
	}
	ps.bufTotal = 0
	return nil
}

// seal finishes the run file. Call once the input is drained, before
// loading or re-partitioning.
func (ps *partitionSet) seal() error {
	if ps.w == nil {
		return nil
	}
	run, err := ps.w.Finish()
	ps.w, ps.run = nil, run
	return err
}

// abort closes the set's open file, if any (error/panic path; the file
// itself dies with the query's spill.Dir).
func (ps *partitionSet) abort() {
	if ps.w != nil {
		ps.w.Abort()
		ps.w = nil
	}
	if ps.rd != nil {
		ps.rd.Close()
		ps.rd = nil
	}
}

// partBytes reports a partition's total payload (disk + buffered tail).
func (ps *partitionSet) partBytes(p int) int64 { return ps.rows[p] * ps.rowB }

// reader returns the sealed run file's one reader, opened on first use, or
// the query's error once it has one.
func (ps *partitionSet) reader(ec *ExecContext) (*spill.RunReader, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if ps.rd == nil {
		rd, err := ps.run.Open(ps.dicts)
		if err != nil {
			return nil, err
		}
		ps.rd = rd
	}
	return ps.rd, nil
}

// load materialises the non-empty partition p, tag column included, as one
// relation in global input order, allocated once at its known size: frames
// decode straight into it and the buffered tail is copied behind them (later
// rows were never flushed, so extent order + tail = input order). It retires
// p and returns the bytes now reserved for the relation, which the caller
// drops when it is done with it.
func (ps *partitionSet) load(ec *ExecContext, p int) (*storage.Relation, int64, error) {
	held := ps.partBytes(p)
	if err := ps.rv.grab(held); err != nil {
		return nil, 0, err
	}
	rel, err := allocLike(ps.schema, int(ps.rows[p]))
	if err != nil {
		return nil, 0, err
	}
	at := 0
	for _, off := range ps.extents[p] {
		rd, err := ps.reader(ec)
		if err != nil {
			return nil, 0, err
		}
		n, err := rd.ReadInto(off, rel, at)
		if err != nil {
			return nil, 0, err
		}
		at += n
	}
	if at+ps.fill[p] != rel.NumRows() {
		return nil, 0, qerr.New(qerr.ErrInternal, "spill: partition %d holds %d rows, %d were dealt", p, at+ps.fill[p], rel.NumRows())
	}
	if ps.fill[p] > 0 {
		copyRows(rel, at, ps.bufs[p], ps.fill[p])
	}
	return rel, held, ps.retire(p)
}

// retire gives up partition p's buffer and its reservation and, with the
// set's last partition, closes the reader and removes the run file, which
// returns the file's bytes to the disk budget.
func (ps *partitionSet) retire(p int) error {
	tail := int64(ps.fill[p]) * ps.rowB
	ps.rv.drop(tail)
	ps.bufTotal -= tail
	ps.bufs[p], ps.fill[p], ps.extents[p] = nil, 0, nil
	if ps.left--; ps.left > 0 || ps.run == nil {
		return nil
	}
	run := ps.run
	ps.run = nil
	if ps.rd != nil {
		err := ps.rd.Close()
		if ps.rd = nil; err != nil {
			return err
		}
	}
	return run.Remove()
}

// repartition deals partition p out into a fresh, sealed set one level
// deeper (a different hash-bit window) and retires p. Used when a partition
// alone still exceeds the spill grant.
func (ps *partitionSet) repartition(ec *ExecContext, p int) (*partitionSet, error) {
	child := newPartitionSet(ps.rv, ps.sets, ps.label, ps.key, ps.tag, ps.level+1, ps.quota)
	child.schema, child.keyCol, child.rowB, child.dicts = ps.schema, ps.keyCol, ps.rowB, ps.dicts
	ps.rv.b.addSpill(0, 0, 1)
	for _, off := range ps.extents[p] {
		rd, err := ps.reader(ec)
		if err != nil {
			return nil, err
		}
		batch, err := rd.ReadAt(off)
		if err != nil {
			return nil, err
		}
		if err := child.add(ec, batch, true); err != nil {
			return nil, err
		}
	}
	if ps.fill[p] > 0 {
		if err := child.add(ec, ps.bufs[p].Slice(0, ps.fill[p]), true); err != nil {
			return nil, err
		}
	}
	if err := ps.retire(p); err != nil {
		return nil, err
	}
	return child, child.seal()
}

// spillInput is one child of a partitioned operator as it is drained:
// in-memory batches until the operator's inputs together pass the grant, a
// partition set afterwards.
type spillInput struct {
	op       Operator
	key      string
	tag      string
	template *storage.Relation
	parts    []*storage.Relation
	bufBytes int64
	ps       *partitionSet
}

// drainInputs drains ins one after the other and reports whether they
// spilled. Batches buffer in memory while all inputs together fit the grant
// and the budget; the first batch that does not sends every input's buffer
// to a partition set of its own, each with an equal share of the grant, and
// later batches are dealt straight to the sets, which are returned sealed.
func drainInputs(ec *ExecContext, rv *resv, sets *[]*partitionSet, label string, quota int64, ins ...*spillInput) (bool, error) {
	var rows, buffered int64
	spilled := false
	for _, in := range ins {
		for {
			if err := ec.Err(); err != nil {
				return false, err
			}
			if err := faultinject.Fire(faultinject.PointExecDrainBatch); err != nil {
				return false, err
			}
			batch, err := in.op.Next(ec)
			if err != nil {
				return false, err
			}
			if batch == nil {
				break
			}
			ec.Counters.tick(batch.NumRows())
			rows += int64(batch.NumRows())
			if in.template == nil {
				in.template = batch
			}
			if batch.NumRows() == 0 {
				continue
			}
			if !spilled {
				n := batch.MemBytes()
				if err := rv.grab(n); err == nil && buffered+n <= quota {
					in.parts = append(in.parts, batch)
					in.bufBytes, buffered = in.bufBytes+n, buffered+n
					continue
				} else if err == nil {
					rv.drop(n) // quota, not budget, tripped: re-grab inside spill mode
				}
				spilled = true
				for _, s := range ins {
					s.ps = newPartitionSet(rv, sets, label, s.key, s.tag, 0, quota/int64(len(ins)))
					for _, b := range s.parts {
						if err := s.ps.add(ec, b, false); err != nil {
							return false, err
						}
					}
					rv.drop(s.bufBytes)
					s.parts, s.bufBytes = nil, 0
					if err := s.ps.flush(ec); err != nil {
						return false, err
					}
				}
			}
			if err := in.ps.add(ec, batch, false); err != nil {
				return false, err
			}
		}
	}
	rv.b.addRowsIn(rows)
	if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
		return false, err
	}
	for _, in := range ins {
		if in.template == nil {
			return false, qerr.New(qerr.ErrInternal, "spill: %s has no input schema", label)
		}
		if spilled {
			if err := in.ps.seal(); err != nil {
				return false, err
			}
		}
	}
	return spilled, nil
}

// dropCols returns rel without the named columns.
func dropCols(rel *storage.Relation, names ...string) (*storage.Relation, error) {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var cols []*storage.Column
	for _, c := range rel.Columns() {
		if !drop[c.Name()] {
			cols = append(cols, c)
		}
	}
	return storage.NewRelation(rel.Name(), cols...)
}

// ---------------------------------------------------------------------------
// SpillGroup: spilling hash aggregation (partition and recurse).

// SpillGroup aggregates with bounded memory: the input is hash-partitioned
// (keys are partition-complete, so per-partition aggregates are exact), the
// serial chained-hash kernel runs per partition, and the merged groups are
// reordered by each key's first-occurrence row — exactly the chained
// table's first-seen iteration order, so the output is byte-identical to
// the in-memory serial HG twin.
type SpillGroup struct {
	base
	child Operator
	key   string
	aggs  []expr.AggSpec
	opt   physical.GroupOptions
	dom   props.Domain
	out   *storage.Relation
	pos   int
	held  int64
	sets  []*partitionSet
}

// NewSpillGroup returns a spilling hash aggregation of child by key. opt
// must describe the serial chained-hash variant (the only scheme whose
// iteration order is partition-recomposable).
func NewSpillGroup(label Labeler, child Operator, key string, aggs []expr.AggSpec, opt physical.GroupOptions, dom props.Domain) *SpillGroup {
	opt.Parallel = 1
	return &SpillGroup{base: base{label: label}, child: child, key: key, aggs: aggs, opt: opt, dom: dom}
}

// Open implements Operator.
func (g *SpillGroup) Open(ec *ExecContext) error {
	g.out, g.pos, g.sets = nil, 0, nil
	g.stats.DOP = 1
	return g.child.Open(ec)
}

// Next implements Operator.
func (g *SpillGroup) Next(ec *ExecContext) (*storage.Relation, error) {
	defer g.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if g.out == nil {
		if err := g.materialize(ec); err != nil {
			return nil, err
		}
	}
	return emitChunk(ec, &g.base, g.out, &g.pos)
}

// Close implements Operator.
func (g *SpillGroup) Close(ec *ExecContext) error {
	for _, ps := range g.sets {
		ps.abort()
	}
	g.sets = nil
	ec.Ctl().Release(atomic.SwapInt64(&g.held, 0))
	return g.child.Close(ec)
}

// Children implements Operator.
func (g *SpillGroup) Children() []Operator { return []Operator{g.child} }

func (g *SpillGroup) materialize(ec *ExecContext) error {
	ctl := ec.CtlFor(g)
	rv := &resv{ctl: ctl, held: &g.held, b: &g.base}
	opt := g.opt
	opt.Ctl = ctl
	quota := ec.SpillQuota()

	in := &spillInput{op: g.child, key: g.key, tag: rowTagL}
	spilled, err := drainInputs(ec, rv, &g.sets, g.Label(), quota, in)
	if err != nil {
		return err
	}
	if !spilled {
		// Everything fit: the in-memory serial twin, exactly.
		rel, err := storage.Concat(orSchema(in.parts, in.template))
		if err != nil {
			return err
		}
		out, err := physical.GroupByRelDom(rel, g.key, g.aggs, physical.HG, opt, g.dom)
		if err != nil {
			return err
		}
		rv.drop(in.bufBytes)
		if err := rv.grab(out.MemBytes()); err != nil {
			return err
		}
		g.out = out
		return nil
	}

	var groups []*storage.Relation
	var ord []uint32 // every group's first input row, in groups order
	var groupBytes int64
	var process func(set *partitionSet, p int) error
	process = func(set *partitionSet, p int) error {
		if err := ec.Err(); err != nil {
			return err
		}
		if set.rows[p] == 0 {
			return set.retire(p)
		}
		if set.partBytes(p) > quota && set.level+1 < spillMaxDepth {
			child, err := set.repartition(ec, p)
			if err != nil {
				return err
			}
			for q := 0; q < spillParts; q++ {
				if err := process(child, q); err != nil {
					return err
				}
			}
			return nil
		}
		rel, held, err := set.load(ec, p)
		if err != nil {
			return err
		}
		cols := rel.Columns()
		tag := len(cols) - 1
		stripped, err := storage.NewRelation(rel.Name(), cols[:tag]...)
		if err != nil {
			return err
		}
		gr, err := physical.GroupByRelDom(stripped, g.key, g.aggs, physical.HG, opt, g.dom)
		if err != nil {
			return err
		}
		if err := rv.grab(gr.MemBytes()); err != nil {
			return err
		}
		groupBytes += gr.MemBytes()
		if ord, err = firstSeen(ord, cols[set.keyCol].Uint32s(), cols[tag].Uint32s(), gr.Columns()[0].Uint32s()); err != nil {
			return err
		}
		groups = append(groups, gr)
		rv.drop(held)
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if err := process(in.ps, p); err != nil {
			return err
		}
	}

	if len(groups) == 0 {
		out, err := physical.GroupByRelDom(in.template.Slice(0, 0), g.key, g.aggs, physical.HG, opt, g.dom)
		if err != nil {
			return err
		}
		g.out = out
		return nil
	}
	merged, err := storage.Concat(groups)
	if err != nil {
		return err
	}
	// First-occurrence ordinals are unique, so their argsort is the chained
	// table's first-seen order over the whole input.
	out := merged.Gather(sortx.ArgSortUint32(sortx.Radix, ord))
	if err := rv.grab(out.MemBytes()); err != nil {
		return err
	}
	rv.drop(groupBytes)
	g.out = out
	return nil
}

// firstSeen appends to ord the input ordinal of each group's first row. keys
// and rows are one partition's key column and ordinals in input order; gkeys
// are its groups as the chained kernel emits them, first-seen. Group i+1 was
// first seen after group i, and every row before group i's first one belongs
// to an earlier group, so a single forward walk that waits for gkeys[i] meets
// it exactly at its first occurrence. A group the walk never meets — groups
// in an order that cannot be first-seen — is an internal error.
func firstSeen(ord, keys, rows, gkeys []uint32) ([]uint32, error) {
	g := 0
	for i, k := range keys {
		if g == len(gkeys) {
			break
		}
		if k == gkeys[g] {
			ord = append(ord, rows[i])
			g++
		}
	}
	if g != len(gkeys) {
		return nil, qerr.New(qerr.ErrInternal, "spill group: %d of %d groups met in first-seen order", g, len(gkeys))
	}
	return ord, nil
}

// ---------------------------------------------------------------------------
// SpillJoin: grace hash join.

// SpillJoin executes an equi-join with bounded memory: both sides are
// tagged with their global row ordinals and hash-partitioned on the join
// key (matching keys land in matching partitions), each partition pair is
// joined with the serial in-memory hash join, and one global sort over the
// tagged pair outputs restores the serial emission order — probe row
// ascending, build row descending. The output is byte-identical to the
// in-memory serial HJ twin.
type SpillJoin struct {
	base
	left, right Operator
	leftKey     string
	rightKey    string
	opt         physical.JoinOptions
	swapped     bool
	dom         props.Domain
	cols        []string // output columns kept (physical.JoinRelDom); nil = all
	out         *storage.Relation
	pos         int
	held        int64
	sets        []*partitionSet
}

// NewSpillJoin returns a grace hash join of left and right. swapped selects
// build-on-right (join commutativity) and cols the output columns kept,
// both mirroring physical.JoinRelDom / JoinRelDomSwapped.
func NewSpillJoin(label Labeler, left, right Operator, leftKey, rightKey string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) *SpillJoin {
	opt.Parallel = 1
	return &SpillJoin{base: base{label: label}, left: left, right: right,
		leftKey: leftKey, rightKey: rightKey, opt: opt, swapped: swapped, dom: dom, cols: cols}
}

// Open implements Operator.
func (j *SpillJoin) Open(ec *ExecContext) error {
	j.out, j.pos, j.sets = nil, 0, nil
	j.stats.DOP = 1
	if err := j.left.Open(ec); err != nil {
		return err
	}
	return j.right.Open(ec)
}

// Next implements Operator.
func (j *SpillJoin) Next(ec *ExecContext) (*storage.Relation, error) {
	defer j.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if j.out == nil {
		if err := j.materialize(ec); err != nil {
			return nil, err
		}
	}
	return emitChunk(ec, &j.base, j.out, &j.pos)
}

// Close implements Operator.
func (j *SpillJoin) Close(ec *ExecContext) error {
	for _, ps := range j.sets {
		ps.abort()
	}
	j.sets = nil
	ec.Ctl().Release(atomic.SwapInt64(&j.held, 0))
	err := j.left.Close(ec)
	if err2 := j.right.Close(ec); err == nil {
		err = err2
	}
	return err
}

// Children implements Operator.
func (j *SpillJoin) Children() []Operator { return []Operator{j.left, j.right} }

func (j *SpillJoin) materialize(ec *ExecContext) error {
	ctl := ec.CtlFor(j)
	rv := &resv{ctl: ctl, held: &j.held, b: &j.base}
	opt := j.opt
	opt.Ctl = ctl
	quota := ec.SpillQuota()

	ls := &spillInput{op: j.left, key: j.leftKey, tag: rowTagL}
	rs := &spillInput{op: j.right, key: j.rightKey, tag: rowTagR}
	spilled, err := drainInputs(ec, rv, &j.sets, j.Label(), quota, ls, rs)
	if err != nil {
		return err
	}

	join := func(l, r *storage.Relation, cols []string) (*storage.Relation, error) {
		if j.swapped {
			return physical.JoinRelDomSwapped(l, r, j.leftKey, j.rightKey, physical.HJ, opt, j.dom, cols)
		}
		return physical.JoinRelDom(l, r, j.leftKey, j.rightKey, physical.HJ, opt, j.dom, cols)
	}
	// Partition pairs are joined over row-tagged inputs and must carry the
	// tags through to the order-restoring sort.
	taggedCols := j.cols
	if taggedCols != nil {
		taggedCols = append(append([]string(nil), j.cols...), rowTagL, rowTagR)
	}

	if !spilled {
		// Everything fit: the in-memory serial twin, exactly.
		l, err := storage.Concat(orSchema(ls.parts, ls.template))
		if err != nil {
			return err
		}
		r, err := storage.Concat(orSchema(rs.parts, rs.template))
		if err != nil {
			return err
		}
		out, err := join(l, r, j.cols)
		if err != nil {
			return err
		}
		rv.drop(ls.bufBytes + rs.bufBytes)
		if err := rv.grab(out.MemBytes()); err != nil {
			return err
		}
		j.out = out
		return nil
	}

	var pairs []*storage.Relation
	var pairBytes int64
	var process func(lset, rset *partitionSet, p int) error
	process = func(lset, rset *partitionSet, p int) error {
		if err := ec.Err(); err != nil {
			return err
		}
		if lset.rows[p] == 0 || rset.rows[p] == 0 {
			// Inner join: an empty side means no matches, and the other
			// side's rows are given up unread.
			if err := lset.retire(p); err != nil {
				return err
			}
			return rset.retire(p)
		}
		build := lset
		if j.swapped {
			build = rset
		}
		if build.partBytes(p) > quota/2 && lset.level+1 < spillMaxDepth {
			lchild, err := lset.repartition(ec, p)
			if err != nil {
				return err
			}
			rchild, err := rset.repartition(ec, p)
			if err != nil {
				return err
			}
			for q := 0; q < spillParts; q++ {
				if err := process(lchild, rchild, q); err != nil {
					return err
				}
			}
			return nil
		}
		lrel, lheld, err := lset.load(ec, p)
		if err != nil {
			return err
		}
		rrel, rheld, err := rset.load(ec, p)
		if err != nil {
			return err
		}
		out, err := join(lrel, rrel, taggedCols)
		if err != nil {
			return err
		}
		if err := rv.grab(out.MemBytes()); err != nil {
			return err
		}
		pairBytes += out.MemBytes()
		pairs = append(pairs, out)
		rv.drop(lheld + rheld)
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if err := process(ls.ps, rs.ps, p); err != nil {
			return err
		}
	}

	if len(pairs) == 0 {
		out, err := join(ls.template.Slice(0, 0), rs.template.Slice(0, 0), j.cols)
		if err != nil {
			return err
		}
		j.out = out
		return nil
	}
	merged, err := storage.Concat(pairs)
	if err != nil {
		return err
	}
	// Restore the serial hash join's emission order: probe row ascending,
	// build row descending. Probe is the right side, or the left when the
	// join is swapped (build on right).
	probeTag, buildTag := rowTagR, rowTagL
	if j.swapped {
		probeTag, buildTag = rowTagL, rowTagR
	}
	// That order is ascending in the 64-bit key probe<<32 | ^build, which an
	// LSD radix sort reaches in two stable passes, low word first.
	probe := merged.MustColumn(probeTag).Uint32s()
	word := make([]uint32, merged.NumRows())
	for i, b := range merged.MustColumn(buildTag).Uint32s() {
		word[i] = ^b
	}
	byBuild := sortx.ArgSortUint32(sortx.Radix, word)
	for i, r := range byBuild {
		word[i] = probe[r]
	}
	perm := sortx.ArgSortUint32(sortx.Radix, word)
	for i, r := range perm {
		perm[i] = byBuild[r]
	}
	untagged, err := dropCols(merged, rowTagL, rowTagR)
	if err != nil {
		return err
	}
	out := untagged.Gather(perm)
	if err := rv.grab(out.MemBytes()); err != nil {
		return err
	}
	rv.drop(pairBytes)
	j.out = out
	return nil
}

// orSchema substitutes an empty schema batch when nothing was buffered, so
// the in-memory fast paths can Concat unconditionally.
func orSchema(parts []*storage.Relation, template *storage.Relation) []*storage.Relation {
	if len(parts) == 0 {
		return []*storage.Relation{template.Slice(0, 0)}
	}
	return parts
}
