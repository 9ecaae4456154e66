package exec

// Spill strategies: how a breaker that may spill holds its input. A spill
// twin is the in-memory breaker — the same Materialize running the same
// kernel — plus one of three strategies, chosen by the optimiser only when no
// in-memory variant fits Mode.MemBudget. Each buffers in memory up to the
// govern spill grant and only touches disk past it, so a query whose data
// fits never pays a single write (and never creates the spill directory):
// its breaker runs the kernel as the in-memory breaker does. Past the grant
// each produces output byte-identical to that kernel's:
//
//   - SortRuns writes stably sorted runs and k-way merges them with a
//     (key, run order) tie-break — since the in-memory argsort is stable for
//     every sort kind, the merged output IS the stable full sort. The merge
//     decides on keys alone and copies whole column windows.
//   - JoinPartitions numbers each side's rows by global input ordinal,
//     hash-partitions both sides to disk, joins partition pairs serially, and
//     restores the serial hash join's emission order — (probe row ascending,
//     build row descending: the multimap's reverse-build-order emission
//     contract) — with one radix sort over the pair outputs' ordinals.
//   - GroupPartitions hash-partitions its input (keys are partition-complete,
//     so per-partition aggregates are exact), reuses the serial chained-hash
//     aggregation kernel per partition, and reorders the merged groups by
//     each key's first-occurrence ordinal — found by one forward walk per
//     partition, ordered by one radix sort — reproducing the chained table's
//     first-seen iteration order.
//
// The strategies move columns, not values: a partition set scatters each
// batch column by column into per-partition buffers and writes a buffer as
// one frame of the set's one run file; a partition is read back by its frame
// offsets straight into a relation allocated once at its known size.
// Partitions that still exceed the grant recurse — re-partitioning on a
// different hash-bit window — down to a fixed depth cap.

import (
	"fmt"
	"math"

	"dqo/internal/expr"
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
// SpillStrategy, and the buffers every strategy starts with.

// SpillStrategy is how a breaker that may spill holds its input. The breaker
// drains its inputs one after the other and hands the strategy every
// non-empty batch; the strategy keeps them in memory, reserved through the
// breaker's holder, until they pass the spill grant, and spills past it. At
// the end of the drain finish returns either the inputs whole — nothing went
// to disk, and the breaker runs its kernel as an in-memory breaker does — or
// the output, produced from disk. abort closes and removes whatever run files
// the strategy still holds; the breaker's Close calls it however the query
// ended, and the query's spill.Dir removes anything left.
type SpillStrategy interface {
	add(ec *ExecContext, h *holder, i int, batch *storage.Relation) error
	finish(ec *ExecContext, h *holder, schema []*storage.Relation) (whole []*storage.Relation, out *storage.Relation, err error)
	abort()
}

// buffered is what a strategy holds in memory: each input's batches and the
// bytes reserved for them.
type buffered struct {
	parts [][]*storage.Relation
	bytes []int64
}

func newBuffered(inputs int) buffered {
	return buffered{parts: make([][]*storage.Relation, inputs), bytes: make([]int64, inputs)}
}

// keep buffers batch as input i's next, n bytes already reserved.
func (b *buffered) keep(i int, batch *storage.Relation, n int64) {
	b.parts[i] = append(b.parts[i], batch)
	b.bytes[i] += n
}

// whole returns every input whole: its buffered batches, or the empty
// relation of its schema when none was buffered.
func (b *buffered) whole(schema []*storage.Relation) ([]*storage.Relation, error) {
	in := make([]*storage.Relation, len(schema))
	for i, s := range schema {
		parts := b.parts[i]
		if len(parts) == 0 {
			parts = []*storage.Relation{s.Slice(0, 0)}
		}
		var err error
		if in[i], err = storage.Concat(parts); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// SortRuns: external merge sort.

// sortRuns sorts its input by a uint32 key column with bounded working
// memory: batches buffer up to the spill grant, each overflow is stably
// sorted and written as a run, and the runs are k-way merged (recursively,
// above the fan-in) with a (key, run order) tie-break. Output is
// byte-identical to the serial in-memory sort for every sort kind, because
// the in-memory argsort is stable and the runs partition the input in
// order.
type sortRuns struct {
	buffered
	key  string
	kind sortx.Kind
	runs []*spill.Run
	tmpl *storage.Relation // the input's schema, once merging
}

// SortRuns returns the external merge sort's strategy for a sort by key.
func SortRuns(key string, kind sortx.Kind) SpillStrategy {
	return &sortRuns{buffered: newBuffered(1), key: key, kind: kind}
}

func (s *sortRuns) add(ec *ExecContext, h *holder, _ int, batch *storage.Relation) error {
	n := batch.MemBytes()
	if s.bytes[0] > 0 && s.bytes[0]+n > ec.SpillQuota() {
		if err := s.flush(ec, h); err != nil {
			return err
		}
	}
	if err := h.grab(n); err != nil {
		// Memory pressure before the proactive quota: flush and retry once.
		if ferr := s.flush(ec, h); ferr != nil {
			return ferr
		}
		if err := h.grab(n); err != nil {
			return err
		}
	}
	s.keep(0, batch, n)
	return nil
}

// flush sorts the buffered batches and writes them as one run.
func (s *sortRuns) flush(ec *ExecContext, h *holder) error {
	buf := s.bytes[0]
	if buf == 0 {
		return nil
	}
	// The run sort gathers a sorted copy of the buffer: charge it for the
	// duration of the write.
	if err := h.grab(buf); err != nil {
		return err
	}
	in, err := storage.Concat(s.parts[0])
	if err != nil {
		return err
	}
	sorted, err := physical.SortRel(in, s.key, s.kind, 1, nil)
	if err != nil {
		return err
	}
	run, err := s.writeRun(ec, h.b.Label(), sorted)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	h.b.addSpill(run.Bytes, 1, 0)
	s.parts[0], s.bytes[0] = s.parts[0][:0], 0
	h.drop(2 * buf) // buffered batches + the sorted copy
	return nil
}

func (s *sortRuns) finish(ec *ExecContext, h *holder, schema []*storage.Relation) ([]*storage.Relation, *storage.Relation, error) {
	if len(s.runs) == 0 {
		whole, err := s.whole(schema)
		return whole, nil, err
	}
	if err := s.flush(ec, h); err != nil { // tail
		return nil, nil, err
	}
	s.tmpl = schema[0]
	out, err := s.merge(ec, h)
	return nil, out, err
}

func (s *sortRuns) abort() {
	for _, r := range s.runs {
		_ = r.Remove() // best effort: the query's spill.Dir removes what is left
	}
	s.runs = nil
}

// writeRun streams a sorted relation into a fresh run in morsel-sized
// frames, bounding the memory a merge cursor needs to read it back.
func (s *sortRuns) writeRun(ec *ExecContext, label string, sorted *storage.Relation) (*spill.Run, error) {
	dir, err := ec.Spill()
	if err != nil {
		return nil, err
	}
	w, err := dir.NewRun(label)
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
func (s *sortRuns) merge(ec *ExecContext, h *holder) (*storage.Relation, error) {
	runs := s.runs
	passes := int64(1)
	for len(runs) > spillFanIn {
		var next []*spill.Run
		for lo := 0; lo < len(runs); lo += spillFanIn {
			hi := min(lo+spillFanIn, len(runs))
			merged, err := s.mergeToDisk(ec, h, runs[lo:hi])
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
	h.b.addSpill(0, 0, passes)

	// The output is allocated, and reserved, once at its final size.
	var total int64
	for _, r := range runs {
		total += r.Rows
	}
	if err := h.grab(total * rowBytes(s.tmpl)); err != nil {
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

func (s *sortRuns) mergeToDisk(ec *ExecContext, h *holder, runs []*spill.Run) (*spill.Run, error) {
	dir, err := ec.Spill()
	if err != nil {
		return nil, err
	}
	out, err := allocLike(s.tmpl, ec.MorselSize)
	if err != nil {
		return nil, err
	}
	w, err := dir.NewRun(h.b.Label() + "-merge")
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
	h.b.addSpill(run.Bytes, 1, 0)
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
func (s *sortRuns) mergeRuns(ec *ExecContext, runs []*spill.Run, out *storage.Relation, emit func(*storage.Relation) error) (int64, error) {
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
	h        *holder
	sets     *[]*partitionSet // the owning strategy's list of sets to abort on Close
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
	loaded   *storage.Relation // every load's rows, reused: see load
	left     int               // partitions not yet retired
}

// newPartitionSet returns an empty set, registered in sets.
func newPartitionSet(h *holder, sets *[]*partitionSet, label, key, tag string, level int, quota int64) *partitionSet {
	ps := &partitionSet{h: h, sets: sets, label: label, key: key, tag: tag, level: level, quota: quota, left: spillParts}
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
	if ps.h.grab(need) != nil {
		// Memory pressure before the grant: flush and retry once.
		if err := ps.flush(ec); err != nil {
			return err
		}
		if err := ps.h.grab(need); err != nil {
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
			ps.h.b.addSpill(0, 1, 0)
		}
		off := ps.w.BytesWritten()
		if err := ps.w.Append(ps.bufs[p].Slice(0, n)); err != nil {
			return err
		}
		ps.h.b.addSpill(ps.w.BytesWritten()-off, 0, 0)
		ps.extents[p] = append(ps.extents[p], off)
		ps.h.drop(int64(n) * ps.rowB)
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

// abort closes and removes the set's run file, if any (error/panic path).
func (ps *partitionSet) abort() {
	if ps.w != nil {
		ps.w.Abort()
		ps.w = nil
	}
	if ps.run != nil {
		_ = ps.run.Remove() // best effort: the query's spill.Dir removes what is left
		ps.run, ps.rd = nil, nil
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
// relation in global input order: frames decode straight into it and the
// buffered tail is copied behind them (later rows were never flushed, so
// extent order + tail = input order). Every load of a set fills the same
// buffer, allocated once for the set's largest partition within its grant —
// the partitions that are loaded rather than re-dealt — and regrown only for
// a larger one. So the relation is valid until the set's next load, which is
// all a kernel needs of it: grouping builds its output from fresh arrays and a
// join gathers. It retires p and returns the bytes reserved for the relation
// (its rows, not the buffer's), which the caller drops when it is done with
// it.
func (ps *partitionSet) load(ec *ExecContext, p int) (*storage.Relation, int64, error) {
	held := ps.partBytes(p)
	if err := ps.h.grab(held); err != nil {
		return nil, 0, err
	}
	n := int(ps.rows[p])
	if ps.loaded == nil || ps.loaded.NumRows() < n {
		most := n
		for _, r := range ps.rows {
			if r*ps.rowB <= ps.quota {
				most = max(most, int(r))
			}
		}
		var err error
		if ps.loaded, err = allocLike(ps.schema, most); err != nil {
			return nil, 0, err
		}
	}
	rel := ps.loaded.Slice(0, n)
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
	ps.h.drop(tail)
	ps.bufTotal -= tail
	ps.bufs[p], ps.fill[p], ps.extents[p] = nil, 0, nil
	if ps.left--; ps.left == 0 {
		ps.loaded = nil
	}
	if ps.left > 0 || ps.run == nil {
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
	child := newPartitionSet(ps.h, ps.sets, ps.label, ps.key, ps.tag, ps.level+1, ps.quota)
	child.schema, child.keyCol, child.rowB, child.dicts = ps.schema, ps.keyCol, ps.rowB, ps.dicts
	ps.h.b.addSpill(0, 0, 1)
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

// partitioned is the strategy of the partitioned operators, grouping and
// join. Batches buffer in memory while all inputs together fit the grant and
// the budget; the first batch that does not sends every input's buffer to a
// partition set of its own, each with an equal share of the grant, and later
// batches are dealt straight to the sets. merge produces the output from the
// sealed sets.
type partitioned struct {
	buffered
	keys  []string        // each input's partitioning key
	ps    []*partitionSet // each input's set once spilled; nil while in memory
	sets  []*partitionSet // every set, re-partitions included, for abort
	merge func(ec *ExecContext, h *holder, schema []*storage.Relation) (*storage.Relation, error)
}

// rowTags name the tag column of each input's partition sets.
var rowTags = [2]string{rowTagL, rowTagR}

func (p *partitioned) add(ec *ExecContext, h *holder, i int, batch *storage.Relation) error {
	if p.ps == nil {
		n, quota := batch.MemBytes(), ec.SpillQuota()
		var buffered int64
		for _, b := range p.bytes {
			buffered += b
		}
		if err := h.grab(n); err == nil && buffered+n <= quota {
			p.keep(i, batch, n)
			return nil
		} else if err == nil {
			h.drop(n) // quota, not budget, tripped: re-grab inside spill mode
		}
		if err := p.spillBuffers(ec, h, quota); err != nil {
			return err
		}
	}
	return p.ps[i].add(ec, batch, false)
}

// spillBuffers deals every input's buffer into a fresh partition set of its
// own.
func (p *partitioned) spillBuffers(ec *ExecContext, h *holder, quota int64) error {
	p.ps = make([]*partitionSet, len(p.keys))
	for i, key := range p.keys {
		ps := newPartitionSet(h, &p.sets, h.b.Label(), key, rowTags[i], 0, quota/int64(len(p.keys)))
		p.ps[i] = ps
		for _, b := range p.parts[i] {
			if err := ps.add(ec, b, false); err != nil {
				return err
			}
		}
		h.drop(p.bytes[i])
		p.parts[i], p.bytes[i] = nil, 0
		if err := ps.flush(ec); err != nil {
			return err
		}
	}
	return nil
}

func (p *partitioned) finish(ec *ExecContext, h *holder, schema []*storage.Relation) ([]*storage.Relation, *storage.Relation, error) {
	if p.ps == nil {
		whole, err := p.whole(schema)
		return whole, nil, err
	}
	for _, ps := range p.ps {
		if err := ps.seal(); err != nil {
			return nil, nil, err
		}
	}
	out, err := p.merge(ec, h, schema)
	return nil, out, err
}

func (p *partitioned) abort() {
	for _, ps := range p.sets {
		ps.abort()
	}
	p.sets = nil
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
// GroupPartitions: spilling hash aggregation (partition and recurse).

// GroupPartitions returns the spilling hash aggregation's strategy for a
// grouping by key: the input is hash-partitioned (keys are
// partition-complete, so per-partition aggregates are exact), the serial
// chained-hash kernel runs per partition, and the merged groups are reordered
// by each key's first-occurrence row — exactly the chained table's first-seen
// iteration order, so the output is byte-identical to the in-memory serial HG
// kernel.
func GroupPartitions(key string, aggs []expr.AggSpec, opt physical.GroupOptions, dom props.Domain) SpillStrategy {
	opt.Parallel = 1
	p := &partitioned{buffered: newBuffered(1), keys: []string{key}}
	p.merge = func(ec *ExecContext, h *holder, schema []*storage.Relation) (*storage.Relation, error) {
		o := opt
		o.Ctl = h.ctl
		total := int64(p.ps[0].next) // every input row was numbered once
		return mergeGroups(ec, h, p.ps[0], schema[0], func(rel *storage.Relation) (*storage.Relation, error) {
			return physical.GroupByRel(rel, key, aggs, physical.HG, o, partDomain(dom, rel.NumRows(), total))
		})
	}
	return p
}

// partDomain is the planned key domain dom as the grouping kernel of a
// partition of rows out of total input rows sees it: the distinct count
// scaled to the partition's share of the rows, plus three standard deviations
// of a hashed partition's count around that share, so that the kernel sizes
// its table and states for the groups a partition can expect, not for the
// whole input's. A skewed partition's table grows past it. The bounds stay;
// the domain is no longer dense.
func partDomain(dom props.Domain, rows int, total int64) props.Domain {
	if !dom.Known || total == 0 {
		return dom
	}
	share := float64(dom.Distinct) * float64(rows) / float64(total)
	dom.Distinct, dom.Dense = int64(share+3*math.Sqrt(share))+1, false
	return dom
}

// mergeGroups aggregates a spilled input partition by partition with group
// and restores the first-seen order of the groups over the whole input.
func mergeGroups(ec *ExecContext, h *holder, in *partitionSet, schema *storage.Relation, group func(*storage.Relation) (*storage.Relation, error)) (*storage.Relation, error) {
	quota := ec.SpillQuota()
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
		gr, err := group(stripped)
		if err != nil {
			return err
		}
		if err := h.grab(gr.MemBytes()); err != nil {
			return err
		}
		groupBytes += gr.MemBytes()
		if ord, err = firstSeen(ord, cols[set.keyCol].Uint32s(), cols[tag].Uint32s(), gr.Columns()[0].Uint32s()); err != nil {
			return err
		}
		groups = append(groups, gr)
		h.drop(held)
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if err := process(in, p); err != nil {
			return nil, err
		}
	}

	if len(groups) == 0 {
		return group(schema.Slice(0, 0))
	}
	merged, err := storage.Concat(groups)
	if err != nil {
		return nil, err
	}
	// First-occurrence ordinals are unique, so their argsort is the chained
	// table's first-seen order over the whole input.
	out := merged.Gather(sortx.ArgSortUint32(sortx.Radix, ord))
	if err := h.grab(out.MemBytes()); err != nil {
		return nil, err
	}
	h.drop(groupBytes)
	return out, nil
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
// JoinPartitions: grace hash join.

// JoinPartitions returns the grace hash join's strategy for an equi-join of
// the breaker's two inputs: both sides are tagged with their global row
// ordinals and hash-partitioned on the join key (matching keys land in
// matching partitions), each partition pair is joined with the serial
// in-memory hash join, and one global sort over the tagged pair outputs
// restores the serial emission order — probe row ascending, build row
// descending. The output is byte-identical to the in-memory serial HJ kernel.
// swapped selects build-on-right (join commutativity) and cols the output
// columns kept, both as in physical.JoinRel.
func JoinPartitions(leftKey, rightKey string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) SpillStrategy {
	opt.Parallel = 1
	p := &partitioned{buffered: newBuffered(2), keys: []string{leftKey, rightKey}}
	p.merge = func(ec *ExecContext, h *holder, schema []*storage.Relation) (*storage.Relation, error) {
		o := opt
		o.Ctl = h.ctl
		return mergePairs(ec, h, p.ps[0], p.ps[1], schema, swapped, cols, func(l, r *storage.Relation, cols []string) (*storage.Relation, error) {
			return physical.JoinRel(l, r, leftKey, rightKey, physical.HJ, o, dom, swapped, cols, nil)
		})
	}
	return p
}

// mergePairs joins spilled inputs partition pair by partition pair with join
// and restores the serial hash join's emission order over the whole input.
func mergePairs(ec *ExecContext, h *holder, ls, rs *partitionSet, schema []*storage.Relation, swapped bool, cols []string,
	join func(l, r *storage.Relation, cols []string) (*storage.Relation, error)) (*storage.Relation, error) {
	quota := ec.SpillQuota()
	// Partition pairs are joined over row-tagged inputs and must carry the
	// tags through to the order-restoring sort.
	taggedCols := cols
	if taggedCols != nil {
		taggedCols = append(append([]string(nil), cols...), rowTagL, rowTagR)
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
		if swapped {
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
		if err := h.grab(out.MemBytes()); err != nil {
			return err
		}
		pairBytes += out.MemBytes()
		pairs = append(pairs, out)
		h.drop(lheld + rheld)
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if err := process(ls, rs, p); err != nil {
			return nil, err
		}
	}

	if len(pairs) == 0 {
		return join(schema[0].Slice(0, 0), schema[1].Slice(0, 0), cols)
	}
	merged, err := storage.Concat(pairs)
	if err != nil {
		return nil, err
	}
	// Restore the serial hash join's emission order: probe row ascending,
	// build row descending. Probe is the right side, or the left when the
	// join is swapped (build on right).
	probeTag, buildTag := rowTagR, rowTagL
	if swapped {
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
		return nil, err
	}
	out := untagged.Gather(perm)
	if err := h.grab(out.MemBytes()); err != nil {
		return nil, err
	}
	h.drop(pairBytes)
	return out, nil
}
