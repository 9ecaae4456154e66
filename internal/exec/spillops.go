package exec

// Spill strategies: how a breaker that may spill holds its input. A spill
// twin is the in-memory breaker — the same Materialize running the same
// kernel — plus one of three strategies, chosen by the optimiser only when no
// in-memory variant fits Mode.MemBudget. Each buffers in memory up to the
// govern spill grant and only touches disk past it, so a query whose data
// fits never pays a single write (and never creates the spill directory):
// its breaker runs the kernel as the in-memory breaker does. Past the grant
// all three deal their input into partition sets, and each produces output
// byte-identical to its kernel's:
//
//   - SortRuns deals by key range: a partition's keys all precede the next
//     partition's, so sorting each partition stably in memory and emitting
//     the partitions in order IS the stable full sort (a partition holds its
//     rows in input order, and the in-memory argsort is stable for every sort
//     kind).
//   - JoinPartitions numbers each side's rows by global input ordinal,
//     hash-partitions both sides to disk — dropping second-input rows whose
//     key no first-input key can match — joins partition pairs serially, and
//     restores the serial hash join's emission order — (probe row ascending,
//     build row descending: the multimap's reverse-build-order emission
//     contract) — with one radix sort over the pair outputs' ordinals.
//   - GroupPartitions hash-partitions its input (keys are partition-complete,
//     so per-partition aggregates are exact), reuses the serial chained-hash
//     aggregation kernel per partition, and reorders the merged groups by
//     each key's first-occurrence ordinal — found by one forward walk per
//     partition, ranked in a bitmap of them — reproducing the chained table's
//     first-seen iteration order.
//
// The strategies move columns, not values: a partition set scatters each
// batch column by column into per-partition buffers and writes a buffer as
// one frame of the set's one run file; a partition is read back by its frame
// offsets straight into a relation allocated once at its known size.
// Partitions that still exceed the grant are dealt again one level down: on
// a different hash-bit window, down to a fixed depth cap, or on the key range
// the partition's own rows showed, until one key is left.

import (
	"fmt"
	"math"
	"math/bits"

	"dqo/internal/expr"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/spill"
	"dqo/internal/storage"
)

const (
	spillPartBits = 4                  // log2 of the partition fan-out
	spillParts    = 1 << spillPartBits // partitions per recursion level
	spillMaxDepth = 4                  // hash recursion cap: 4 levels * 4 bits = 16 hash bits

	// The tag column carries each input row's global ordinal through
	// partitioning, so partitioned operators can reconstruct the exact
	// serial emission order. Two names, so a join's sides never clash.
	rowTagL = "__dqo_lrow"
	rowTagR = "__dqo_rrow"
)

// spillHash is the Fibonacci hash of a key. Its top bits pick a hash-dealt
// partition and a join filter's bit alike.
func spillHash(key uint32) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// spillBucket assigns a key to a hash partition. Each recursion level
// consumes a distinct window of the hashed key, so a skewed partition is
// actually split by re-partitioning rather than re-dealt identically.
func spillBucket(key uint32, level int) int {
	shift := uint(64 - spillPartBits*(level+1))
	return int((spillHash(key) >> shift) & (spillParts - 1))
}

// keyWindow deals keys by range: [lo, hi] split into spillParts runs of
// near-equal width, a key outside it clamped into the edge partition on its
// side. The partition is monotone in the key, so every key of partition p
// precedes every key of partition p+1.
type keyWindow struct {
	lo, hi uint32
	mul    uint64 // 2^36 / (hi-lo+1): (k-lo)*mul>>32 is below spillParts
}

func newKeyWindow(lo, hi uint32) *keyWindow {
	return &keyWindow{lo: lo, hi: hi, mul: (1 << (32 + spillPartBits)) / (uint64(hi-lo) + 1)}
}

func (w *keyWindow) bucket(k uint32) int {
	return int(uint64(min(max(k, w.lo), w.hi)-w.lo) * w.mul >> 32)
}

// keyFilter is a one-hash bit filter over the join keys of the first input:
// the top bits of a key's spillHash pick its bit, the same bits whose top
// four pick its level-0 partition, so a key only ever collides with keys of
// its own partition.
type keyFilter struct {
	bits  []uint64
	shift uint
}

// newKeyFilter returns an empty filter over words, a power-of-two count of
// them that it clears.
func newKeyFilter(words []uint64) *keyFilter {
	clear(words)
	return &keyFilter{bits: words, shift: uint(64 - bits.Len(uint(len(words))*64-1))}
}

func (f *keyFilter) add(keys []uint32) {
	for _, k := range keys {
		i := spillHash(k) >> f.shift
		f.bits[i>>6] |= 1 << (i & 63)
	}
}

// has reports 1 when some key added may equal k, 0 when none does.
func (f *keyFilter) has(k uint32) int {
	i := spillHash(k) >> f.shift
	return int(f.bits[i>>6] >> (i & 63) & 1)
}

// filterBytes sizes a join's key filter from the spill grant: a power of two
// near a quarter of it, at least 64 bytes and at most 8 MiB.
func filterBytes(quota int64) int64 {
	return 1 << (bits.Len64(uint64(min(max(quota/4, 64), 8<<20))) - 1)
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

// allocLike returns a relation of n rows with schema's column names, kinds
// and dictionaries, its arrays drawn from s: dirty unless s is nil.
func allocLike(s *storage.Scratch, schema *storage.Relation, n int) (*storage.Relation, error) {
	cols := make([]*storage.Column, schema.NumCols())
	for i, c := range schema.Columns() {
		var err error
		if cols[i], err = storage.NewColumn(s, c.Name(), c.Kind(), c.Dict(), n); err != nil {
			return nil, qerr.Wrap(qerr.ErrInternal, err)
		}
	}
	return storage.NewRelation(schema.Name(), cols...)
}

// copyRows copies n rows of src into rows [at, at+n) of dst: its first n, or
// the rows idx names, in that order, when idx is not nil.
func copyRows(dst *storage.Relation, at int, src *storage.Relation, n int, idx []int32) {
	for c, d := range dst.Columns() {
		s := src.Columns()[c]
		switch d.Kind() {
		case storage.KindUint32, storage.KindString:
			copyCol(d.Uint32s()[at:at+n], s.Uint32s(), idx)
		case storage.KindUint64:
			copyCol(d.Uint64s()[at:at+n], s.Uint64s(), idx)
		case storage.KindInt64:
			copyCol(d.Int64s()[at:at+n], s.Int64s(), idx)
		case storage.KindFloat64:
			copyCol(d.Float64s()[at:at+n], s.Float64s(), idx)
		}
	}
}

func copyCol[T any](dst, src []T, idx []int32) {
	if idx == nil {
		copy(dst, src[:len(dst)])
		return
	}
	for i, r := range idx[:len(dst)] {
		dst[i] = src[r]
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
		if in[i], err = storage.Concat(nil, parts); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// Partitioned spilling, shared by the external sort, grace join and spilling
// aggregation.

// partitionSet fans one input out into spillParts partitions, by hash or, with
// a key window, by key range. Every partition has a column-wise append buffer
// — the input's columns, plus each row's global input ordinal as a last column
// named tag when the set has one — that batches are scattered into directly.
// Once the buffered bytes pass the spill grant every buffer is appended, as
// one frame, to the set's single run file and the frame's offset joins the
// partition's extent list, so a partition's extents in order plus its
// buffered tail always hold its rows in global input order. The file is
// removed when the last partition has been retired.
//
// The buffers are drawn from the strategy's scratch, dirty: every slot is
// written before it is read. They go back to the pools when the strategy
// ends, not when a partition retires: load retires its partition before the
// kernel reads the relation it returned.
type partitionSet struct {
	h        *holder
	sets     *[]*partitionSet // the owning strategy's list of sets to abort on Close
	scratch  *storage.Scratch // the owning strategy's: every buffer below
	label    string
	key      string
	tag      string // the ordinal column's name; "" keeps no ordinals
	level    int
	window   *keyWindow // deals by key range; nil deals by hash
	mark     *keyFilter // every dealt key's bit is set in it
	test     *keyFilter // a row whose key's bit is clear in it is dropped
	quota    int64
	schema   *storage.Relation // zero rows: the input's columns, then the tag
	keyCol   int
	rowB     int64 // bytes reserved per buffered row
	dicts    map[string]*storage.Dict
	next     uint32 // ordinal of the next untagged input row
	bufs     [spillParts]*storage.Relation
	fill     [spillParts]int     // rows buffered in bufs[p]
	rows     [spillParts]int64   // rows dealt to p, on disk or buffered
	lo, hi   [spillParts]uint32  // by range: the least and greatest key dealt to p
	extents  [spillParts][]int64 // p's frame offsets in the run file, in write order
	bucket   []uint8             // scratch: the partition of each row of a batch
	sel      []int32             // scratch: the rows of a batch test keeps
	kept     *storage.Relation   // scratch: those rows
	bufTotal int64
	w        *spill.RunWriter
	run      *spill.Run
	rd       *spill.RunReader
	loaded   *storage.Relation // every load's rows, reused: see load
	left     int               // partitions not yet retired
}

// newPartitionSet returns an empty set, registered in sets, that draws its
// buffers from scratch.
func newPartitionSet(h *holder, sets *[]*partitionSet, scratch *storage.Scratch, label, key, tag string, level int, quota int64) *partitionSet {
	ps := &partitionSet{h: h, sets: sets, scratch: scratch, label: label, key: key, tag: tag, level: level, quota: quota, left: spillParts}
	for p := range ps.lo {
		ps.lo[p] = math.MaxUint32
	}
	*sets = append(*sets, ps)
	return ps
}

// setSchema fixes the buffers' schema: the input's columns plus the tag.
func (ps *partitionSet) setSchema(input *storage.Relation) error {
	cols := input.Slice(0, 0).Columns()
	if ps.tag != "" {
		if _, ok := input.Column(ps.tag); ok {
			return qerr.New(qerr.ErrInternal, "spill: input already has reserved column %q", ps.tag)
		}
		cols = append(cols, storage.NewUint32(ps.tag, nil))
	}
	// Keys are uint32 codes: values, or dictionary codes — what every sort,
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
	schema, err := storage.NewRelation(input.Name(), cols...)
	if err != nil {
		return err
	}
	ps.schema, ps.rowB, ps.dicts = schema, rowBytes(schema), seedDicts(schema)
	return nil
}

// setWindow makes the set deal by key range, over the keys batches hold.
func (ps *partitionSet) setWindow(batches []*storage.Relation) error {
	if err := ps.setSchema(batches[0]); err != nil {
		return err
	}
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, b := range batches {
		for _, k := range b.Columns()[ps.keyCol].Uint32s() {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	ps.window = newKeyWindow(lo, max(lo, hi))
	return nil
}

// add scatters a batch across the partition buffers — histogram, room, then
// one typed pass per column — and flushes them all once the set's buffered
// total passes the grant. Rows are numbered next, next+1, … unless the batch
// is tagged already: a re-dealt partition, whose last column carries its rows'
// ordinals, and which a filter does not see again.
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
	first := ps.next // the ordinal of the batch's first row
	var sel []int32  // the batch's rows test kept; nil: all of them
	if !tagged {
		ps.next += uint32(n)
		keys := batch.Columns()[ps.keyCol].Uint32s()
		if ps.mark != nil {
			ps.mark.add(keys)
		}
		if ps.test != nil {
			var err error
			if batch, sel, err = ps.pass(batch, keys); batch == nil || err != nil {
				return err
			}
			n = batch.NumRows()
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
	if w := ps.window; w != nil {
		for i, k := range batch.Columns()[ps.keyCol].Uint32s() {
			p := w.bucket(k)
			ps.bucket[i] = uint8(p)
			count[p]++
			ps.lo[p], ps.hi[p] = min(ps.lo[p], k), max(ps.hi[p], k)
		}
	} else {
		for i, k := range batch.Columns()[ps.keyCol].Uint32s() {
			p := spillBucket(k, ps.level)
			ps.bucket[i] = uint8(p)
			count[p]++
		}
	}
	for p, c := range count {
		if need := ps.fill[p] + c; c > 0 && (ps.bufs[p] == nil || ps.bufs[p].NumRows() < need) {
			// A first buffer holds an even share of the grant and of the
			// batch that overshoots it, plus an eighth for chance: uniform
			// keys never regrow it.
			even := (int(ps.quota/ps.rowB) + n) / spillParts
			grown, err := allocLike(ps.scratch, ps.schema, max(need, 2*ps.fill[p], even+even/8))
			if err != nil {
				return err
			}
			if ps.fill[p] > 0 {
				copyRows(grown, 0, ps.bufs[p], ps.fill[p], nil)
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
	if !tagged && ps.tag != "" {
		var dst [spillParts][]uint32
		for p, b := range ps.bufs {
			if b != nil {
				dst[p] = b.Columns()[ps.schema.NumCols()-1].Uint32s()
			}
		}
		pos := ps.fill
		if sel == nil {
			for i, p := range ps.bucket {
				dst[p][pos[p]] = first + uint32(i)
				pos[p]++
			}
		} else {
			for i, p := range ps.bucket {
				dst[p][pos[p]] = first + uint32(sel[i])
				pos[p]++
			}
		}
	}
	for p, c := range count {
		ps.fill[p] += c
	}
	if ps.bufTotal > ps.quota {
		return ps.flush(ec)
	}
	return nil
}

// pass returns the rows of batch whose key test may hold, copied into the
// set's kept buffer, and their row numbers in batch: batch itself and nil
// when it keeps every row, and a nil batch when it keeps none.
func (ps *partitionSet) pass(batch *storage.Relation, keys []uint32) (*storage.Relation, []int32, error) {
	if cap(ps.sel) < len(keys) {
		ps.sel = make([]int32, len(keys))
	}
	sel, n := ps.sel[:len(keys)], 0
	for i, k := range keys {
		sel[n] = int32(i)
		n += ps.test.has(k)
	}
	switch n {
	case 0:
		return nil, nil, nil
	case len(keys):
		return batch, nil, nil
	}
	if ps.kept == nil || ps.kept.NumRows() < n {
		var err error
		if ps.kept, err = allocLike(ps.scratch, batch, len(keys)); err != nil {
			return nil, nil, err
		}
	}
	kept := ps.kept.Slice(0, n)
	copyRows(kept, 0, batch, n, sel[:n])
	return kept, sel[:n], nil
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
// relation in global input order. Every load of a set fills the same buffer,
// allocated once for the set's largest partition within its grant — the
// partitions that are loaded rather than re-dealt — and regrown only for a
// larger one. So the relation is valid until the set's next load, which is
// all a kernel needs of it: grouping builds its output from fresh arrays, a
// join and a sort gather. It retires p and returns the bytes reserved for the
// relation (its rows, not the buffer's), which the caller drops when it is
// done with it.
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
		if ps.loaded, err = allocLike(ps.scratch, ps.schema, most); err != nil {
			return nil, 0, err
		}
	}
	rel := ps.loaded.Slice(0, n)
	return rel, held, ps.readInto(ec, p, rel)
}

// readInto reads the non-empty partition p into dst, which holds exactly its
// rows, and retires p: frames decode straight into it and the buffered tail
// is copied behind them (later rows were never flushed, so extent order +
// tail = input order).
func (ps *partitionSet) readInto(ec *ExecContext, p int, dst *storage.Relation) error {
	at := 0
	for _, off := range ps.extents[p] {
		rd, err := ps.reader(ec)
		if err != nil {
			return err
		}
		n, err := rd.ReadInto(off, dst, at)
		if err != nil {
			return err
		}
		at += n
	}
	if at+ps.fill[p] != dst.NumRows() {
		return qerr.New(qerr.ErrInternal, "spill: partition %d holds %d rows, %d were dealt", p, at+ps.fill[p], dst.NumRows())
	}
	if ps.fill[p] > 0 {
		copyRows(dst, at, ps.bufs[p], ps.fill[p], nil)
	}
	return ps.retire(p)
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
// deeper — a different hash-bit window, or the key range p's rows showed —
// and retires p. Used when a partition alone still exceeds the spill grant.
func (ps *partitionSet) repartition(ec *ExecContext, p int) (*partitionSet, error) {
	child := newPartitionSet(ps.h, ps.sets, ps.scratch, ps.label, ps.key, ps.tag, ps.level+1, ps.quota)
	child.schema, child.keyCol, child.rowB, child.dicts = ps.schema, ps.keyCol, ps.rowB, ps.dicts
	if ps.window != nil {
		child.window = newKeyWindow(ps.lo[p], ps.hi[p])
	}
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

// partitioned is the strategy of every spill twin. Batches buffer in memory
// while all inputs together fit the grant and the budget; the first batch that
// does not sends every input's buffer to a partition set of its own, each
// with an equal share of the grant, and later batches are dealt straight to
// the sets. merge produces the output from the sealed sets.
type partitioned struct {
	buffered
	keys    []string         // each input's partitioning key
	tags    []string         // each input's ordinal column; "" for none
	ranged  bool             // deal by key range, not by hash
	filter  bool             // drop second-input rows no first-input key matches
	filterB int64            // bytes reserved for the filter
	scratch *storage.Scratch // every set's buffers, once spilled
	ps      []*partitionSet  // each input's set once spilled; nil while in memory
	sets    []*partitionSet  // every set, re-partitions included, for abort
	merge   func(ec *ExecContext, h *holder, schema []*storage.Relation) (*storage.Relation, error)
}

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
		if err := p.spillBuffers(ec, h, quota, i, batch); err != nil {
			return err
		}
	}
	return p.ps[i].add(ec, batch, false)
}

// spillBuffers deals every input's buffer into a fresh partition set of its
// own. A ranged set's window spans the keys of its buffer and of batch, input
// at's pending batch. A filter, when the budget has room for it, is filled by
// the first input's set and tested by the second's: the breaker drains input
// 0 whole before input 1, and its buffer is dealt here first, so the filter is
// complete before it drops a row.
func (p *partitioned) spillBuffers(ec *ExecContext, h *holder, quota int64, at int, batch *storage.Relation) error {
	p.ps, p.scratch = make([]*partitionSet, len(p.keys)), storage.NewScratch()
	var f *keyFilter
	if n := filterBytes(quota); p.filter && h.grab(n) == nil {
		p.filterB, f = n, newKeyFilter(p.scratch.Uint64s(int(n/8)))
	}
	for i, key := range p.keys {
		ps := newPartitionSet(h, &p.sets, p.scratch, h.b.Label(), key, p.tags[i], 0, quota/int64(len(p.keys)))
		p.ps[i] = ps
		if p.ranged {
			keyed := p.parts[i]
			if i == at {
				keyed = append(keyed[:len(keyed):len(keyed)], batch)
			}
			if err := ps.setWindow(keyed); err != nil {
				return err
			}
		}
		switch {
		case f == nil:
		case i == 0:
			ps.mark = f
		default:
			ps.test = f
		}
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
	h.drop(p.filterB)
	p.filterB = 0
	p.recycle()
	return nil, out, err
}

func (p *partitioned) abort() {
	for _, ps := range p.sets {
		ps.abort()
	}
	p.sets = nil
	p.recycle()
}

// recycle hands the sets' buffers back to the pools: the outputs were built
// from fresh arrays.
func (p *partitioned) recycle() {
	p.scratch.Recycle(nil)
	p.scratch = nil
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

// walk visits the partitions of sets — one input's, or a join's two dealt
// alike — in order. A partition that some set holds no rows of is retired
// unvisited: an inner join's other side has no match in it, and the rows of
// an empty one are given up unread. A partition that visit reports too large
// is dealt again one level down in every set, and the children are walked in
// its place.
func walk(ec *ExecContext, sets []*partitionSet, visit func(sets []*partitionSet, p int) (split bool, err error)) error {
	for p := 0; p < spillParts; p++ {
		if err := ec.Err(); err != nil {
			return err
		}
		empty := false
		for _, s := range sets {
			empty = empty || s.rows[p] == 0
		}
		if empty {
			for _, s := range sets {
				if err := s.retire(p); err != nil {
					return err
				}
			}
			continue
		}
		split, err := visit(sets, p)
		if err != nil {
			return err
		}
		if !split {
			continue
		}
		children := make([]*partitionSet, len(sets))
		for i, s := range sets {
			if children[i], err = s.repartition(ec, p); err != nil {
				return err
			}
		}
		if err := walk(ec, children, visit); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// SortRuns: range-partitioned external sort.

// SortRuns returns the external sort's strategy for a sort by key: the input
// is dealt by key range, each partition is stably sorted in memory, and the
// partitions are emitted in key order — byte-identical to the serial
// in-memory sort for every sort kind.
func SortRuns(key string, kind sortx.Kind) SpillStrategy {
	p := &partitioned{buffered: newBuffered(1), keys: []string{key}, tags: []string{""}, ranged: true}
	p.merge = func(ec *ExecContext, h *holder, schema []*storage.Relation) (*storage.Relation, error) {
		return mergeSorted(ec, h, p.ps[0], schema[0], kind)
	}
	return p
}

// mergeSorted sorts a range-dealt input partition by partition into its
// window of the output, which is allocated and reserved once at its final
// size. A partition above the grant that holds more than one key is dealt
// again over the range its keys showed; one that holds a single key is in
// order as it stands and is read straight into its window; any other is
// loaded, argsorted — the permutation and the radix sort's swap buffer
// reserved as SortRel reserves them — and gathered into its window.
func mergeSorted(ec *ExecContext, h *holder, in *partitionSet, schema *storage.Relation, kind sortx.Kind) (*storage.Relation, error) {
	quota := ec.SpillQuota()
	total := int(in.next) // every input row was dealt once
	if err := h.grab(int64(total) * rowBytes(schema)); err != nil {
		return nil, err
	}
	out, err := allocLike(nil, schema, total)
	if err != nil {
		return nil, err
	}
	at := 0
	err = walk(ec, []*partitionSet{in}, func(sets []*partitionSet, p int) (bool, error) {
		set, n := sets[0], int(sets[0].rows[p])
		switch {
		case set.lo[p] == set.hi[p]:
			if err := set.readInto(ec, p, out.Slice(at, at+n)); err != nil {
				return false, err
			}
		case set.partBytes(p) > quota:
			return true, nil
		default:
			rel, held, err := set.load(ec, p)
			if err != nil {
				return false, err
			}
			if err := h.grab(int64(n) * 8); err != nil {
				return false, err
			}
			copyRows(out, at, rel, n, sortx.ArgSortUint32(kind, rel.Columns()[set.keyCol].Uint32s()))
			h.drop(held + int64(n)*8)
		}
		at += n
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if at != total {
		return nil, qerr.New(qerr.ErrInternal, "spill sort: %d rows of %d sorted", at, total)
	}
	return out, nil
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
	p := &partitioned{buffered: newBuffered(1), keys: []string{key}, tags: []string{rowTagL}}
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
	err := walk(ec, []*partitionSet{in}, func(sets []*partitionSet, p int) (bool, error) {
		set := sets[0]
		if set.partBytes(p) > quota && set.level+1 < spillMaxDepth {
			return true, nil
		}
		rel, held, err := set.load(ec, p)
		if err != nil {
			return false, err
		}
		cols := rel.Columns()
		tag := len(cols) - 1
		stripped, err := storage.NewRelation(rel.Name(), cols[:tag]...)
		if err != nil {
			return false, err
		}
		gr, err := group(stripped)
		if err != nil {
			return false, err
		}
		if err := h.grab(gr.MemBytes()); err != nil {
			return false, err
		}
		groupBytes += gr.MemBytes()
		if ord, err = firstSeen(ord, cols[set.keyCol].Uint32s(), cols[tag].Uint32s(), gr.Columns()[0].Uint32s()); err != nil {
			return false, err
		}
		groups = append(groups, gr)
		h.drop(held)
		return false, nil
	})
	if err != nil {
		return nil, err
	}

	if len(groups) == 0 {
		return group(schema.Slice(0, 0))
	}
	// The concatenation is drawn from the sets' pooled scratch: only the
	// gathered output outlives the strategy.
	merged, err := storage.Concat(in.scratch, groups)
	if err != nil {
		return nil, err
	}
	order, err := firstSeenOrder(ord, int(in.next))
	if err != nil {
		return nil, err
	}
	out := merged.Gather(nil, order)
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

// firstSeenOrder returns the permutation that lists groups in the order of
// their first input rows: ord holds each group's first-row ordinal, and the
// result's i-th entry is the group whose ordinal ranks i. The ordinals are
// unique and below total, so a bitmap of them with a running popcount per
// word ranks every ordinal in constant time, where an argsort would move
// them all four times. Repeated ordinals are an internal error.
func firstSeenOrder(ord []uint32, total int) ([]int32, error) {
	words := make([]uint64, (total+63)/64)
	for _, o := range ord {
		words[o>>6] |= 1 << (o & 63)
	}
	rank := make([]int32, len(words)) // set bits in the words before
	var r int32
	for w, x := range words {
		rank[w] = r
		r += int32(bits.OnesCount64(x))
	}
	if int(r) != len(ord) {
		return nil, qerr.New(qerr.ErrInternal, "spill group: %d first-seen rows for %d groups", r, len(ord))
	}
	order := make([]int32, len(ord))
	for i, o := range ord {
		below := words[o>>6] & (1<<(o&63) - 1)
		order[rank[o>>6]+int32(bits.OnesCount64(below))] = int32(i)
	}
	return order, nil
}

// ---------------------------------------------------------------------------
// JoinPartitions: grace hash join.

// JoinPartitions returns the grace hash join's strategy for an equi-join of
// the breaker's two inputs: both sides are tagged with their global row
// ordinals and hash-partitioned on the join key (matching keys land in
// matching partitions), second-input rows whose key a bit filter of the first
// input's keys does not hold are dropped before they are dealt — an inner
// join's row without a matching key contributes no pair — each partition pair
// is joined with the serial in-memory hash join, and one global sort over the
// tagged pair outputs restores the serial emission order — probe row
// ascending, build row descending. The output is byte-identical to the
// in-memory serial HJ kernel.
// swapped selects build-on-right (join commutativity) and cols the output
// columns kept, both as in physical.JoinRel.
func JoinPartitions(leftKey, rightKey string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) SpillStrategy {
	opt.Parallel = 1
	p := &partitioned{buffered: newBuffered(2), keys: []string{leftKey, rightKey}, tags: []string{rowTagL, rowTagR}, filter: true}
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
	err := walk(ec, []*partitionSet{ls, rs}, func(sets []*partitionSet, p int) (bool, error) {
		build := sets[0]
		if swapped {
			build = sets[1]
		}
		if build.partBytes(p) > quota/2 && build.level+1 < spillMaxDepth {
			return true, nil
		}
		lrel, lheld, err := sets[0].load(ec, p)
		if err != nil {
			return false, err
		}
		rrel, rheld, err := sets[1].load(ec, p)
		if err != nil {
			return false, err
		}
		out, err := join(lrel, rrel, taggedCols)
		if err != nil {
			return false, err
		}
		if err := h.grab(out.MemBytes()); err != nil {
			return false, err
		}
		pairBytes += out.MemBytes()
		pairs = append(pairs, out)
		h.drop(lheld + rheld)
		return false, nil
	})
	if err != nil {
		return nil, err
	}

	if len(pairs) == 0 {
		return join(schema[0].Slice(0, 0), schema[1].Slice(0, 0), cols)
	}
	merged, err := storage.Concat(ls.scratch, pairs) // pooled, as in mergeGroups
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
	out := untagged.Gather(nil, perm)
	if err := h.grab(out.MemBytes()); err != nil {
		return nil, err
	}
	h.drop(pairBytes)
	return out, nil
}
