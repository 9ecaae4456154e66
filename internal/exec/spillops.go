package exec

// Spill-capable breaker twins: external merge sort, grace hash join, and
// spilling hash aggregation. Each is the disk-backed sibling of an
// in-memory breaker kernel, chosen by the optimiser only when no in-memory
// variant fits Mode.MemBudget, and each is byte-identical to its twin:
//
//   - SpillSort writes stably sorted runs and k-way merges them with a
//     (key, run order) tie-break — since the in-memory argsort is stable for
//     every sort kind, the merged output IS the stable full sort.
//   - SpillJoin tags each side with its global row ordinal, hash-partitions
//     both sides to disk, joins partition pairs serially, and restores the
//     serial hash join's emission order — (probe row ascending, build row
//     descending: the multimap's reverse-build-order emission contract) —
//     with one global sort over the tagged pair outputs.
//   - SpillGroup hash-partitions its input (keys are partition-complete, so
//     per-partition aggregates are exact), reuses the serial chained-hash
//     aggregation kernel per partition, and reorders the merged groups by
//     each key's first-occurrence row, reproducing the chained table's
//     first-seen iteration order.
//
// All three buffer in memory up to the govern spill grant and only touch
// disk past it, so a query whose data fits never pays a single write
// (and never creates the spill directory). Partitions that still exceed
// the grant recurse — re-partitioning on a different hash-bit window —
// down to a fixed depth cap.

import (
	"fmt"
	"sort"
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

	// rowTagCol carries each input row's global ordinal through
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

// spillKeyCodes returns a relation's key column as uint32 codes (values for
// KindUint32, dictionary codes for KindString — the same representation
// every grouping/join kernel operates on).
func spillKeyCodes(rel *storage.Relation, key string) ([]uint32, error) {
	c, ok := rel.Column(key)
	if !ok {
		return nil, qerr.New(qerr.ErrInternal, "spill: key column %q not found", key)
	}
	if k := c.Kind(); k != storage.KindUint32 && k != storage.KindString {
		return nil, qerr.New(qerr.ErrInternal, "spill: key column %q has kind %v", key, k)
	}
	return c.Uint32s(), nil
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
// Column-wise relation builder, used by the external merge.

type relBuilder struct {
	template *storage.Relation
	u32      [][]uint32
	u64      [][]uint64
	i64      [][]int64
	f64      [][]float64
	rows     int
}

func newRelBuilder(template *storage.Relation) *relBuilder {
	cols := template.Columns()
	b := &relBuilder{
		template: template,
		u32:      make([][]uint32, len(cols)),
		u64:      make([][]uint64, len(cols)),
		i64:      make([][]int64, len(cols)),
		f64:      make([][]float64, len(cols)),
	}
	return b
}

// colVec caches one batch's raw column slices for row-wise appends.
type colVec struct {
	kind storage.Kind
	u32  []uint32
	u64  []uint64
	i64  []int64
	f64  []float64
}

func vecsOf(rel *storage.Relation) []colVec {
	cols := rel.Columns()
	out := make([]colVec, len(cols))
	for i, c := range cols {
		v := colVec{kind: c.Kind()}
		switch c.Kind() {
		case storage.KindUint32, storage.KindString:
			v.u32 = c.Uint32s()
		case storage.KindUint64:
			v.u64 = c.Uint64s()
		case storage.KindInt64:
			v.i64 = c.Int64s()
		case storage.KindFloat64:
			v.f64 = c.Float64s()
		}
		out[i] = v
	}
	return out
}

func (b *relBuilder) appendFrom(vecs []colVec, row int) {
	for i := range vecs {
		switch vecs[i].kind {
		case storage.KindUint32, storage.KindString:
			b.u32[i] = append(b.u32[i], vecs[i].u32[row])
		case storage.KindUint64:
			b.u64[i] = append(b.u64[i], vecs[i].u64[row])
		case storage.KindInt64:
			b.i64[i] = append(b.i64[i], vecs[i].i64[row])
		case storage.KindFloat64:
			b.f64[i] = append(b.f64[i], vecs[i].f64[row])
		}
	}
	b.rows++
}

func (b *relBuilder) build() (*storage.Relation, error) {
	tcols := b.template.Columns()
	cols := make([]*storage.Column, len(tcols))
	for i, tc := range tcols {
		switch tc.Kind() {
		case storage.KindUint32:
			cols[i] = storage.NewUint32(tc.Name(), b.u32[i])
		case storage.KindString:
			cols[i] = storage.NewStringCodes(tc.Name(), b.u32[i], tc.Dict())
		case storage.KindUint64:
			cols[i] = storage.NewUint64(tc.Name(), b.u64[i])
		case storage.KindInt64:
			cols[i] = storage.NewInt64(tc.Name(), b.i64[i])
		case storage.KindFloat64:
			cols[i] = storage.NewFloat64(tc.Name(), b.f64[i])
		default:
			return nil, qerr.New(qerr.ErrInternal, "spill: cannot rebuild column %q", tc.Name())
		}
	}
	return storage.NewRelation(b.template.Name(), cols...)
}

func (b *relBuilder) reset() {
	for i := range b.u32 {
		b.u32[i], b.u64[i], b.i64[i], b.f64[i] = nil, nil, nil, nil
	}
	b.rows = 0
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
func NewSpillSort(label string, child Operator, key string, kind sortx.Kind) *SpillSort {
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
	rv := &resv{ctl: ec.CtlFor(s.label), held: &s.held, b: &s.base}
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
	w, err := dir.NewRun(s.label)
	if err != nil {
		return nil, err
	}
	n := sorted.NumRows()
	for lo := 0; lo == 0 || lo < n; lo += ec.MorselSize {
		hi := lo + ec.MorselSize
		if hi > n {
			hi = n
		}
		if err := w.Append(sorted.Slice(lo, hi)); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// sortCursor streams one sorted run during a merge.
type sortCursor struct {
	rd   *spill.RunReader
	keys []uint32
	vecs []colVec
	pos  int
	done bool
}

func (c *sortCursor) advance(key string) error {
	for {
		batch, err := c.rd.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			c.done = true
			return nil
		}
		if batch.NumRows() == 0 {
			continue
		}
		keys, err := spillKeyCodes(batch, key)
		if err != nil {
			return err
		}
		c.keys, c.vecs, c.pos = keys, vecsOf(batch), 0
		return nil
	}
}

// merge k-way merges s.runs down to the final in-memory output, doing
// intermediate disk-to-disk passes while the run count exceeds the fan-in.
func (s *SpillSort) merge(ec *ExecContext, rv *resv) (*storage.Relation, error) {
	template := s.template()
	runs := s.runs
	passes := int64(1)
	for len(runs) > spillFanIn {
		var next []*spill.Run
		for lo := 0; lo < len(runs); lo += spillFanIn {
			hi := lo + spillFanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged, err := s.mergeToDisk(ec, runs[lo:hi], template)
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

	var outParts []*storage.Relation
	var outBytes int64
	err := s.mergeRuns(ec, runs, template, func(rel *storage.Relation) error {
		if err := rv.grab(rel.MemBytes()); err != nil {
			return err
		}
		outBytes += rel.MemBytes()
		outParts = append(outParts, rel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(outParts) == 0 {
		outParts = append(outParts, template.Slice(0, 0))
	}
	out, err := storage.Concat(outParts)
	if err != nil {
		return nil, err
	}
	if len(outParts) > 1 {
		if err := rv.grab(out.MemBytes()); err != nil {
			return nil, err
		}
		rv.drop(outBytes)
	}
	return out, nil
}

// template returns the schema batch the merge rebuilds rows against: the
// first batch the drain saw (its columns carry the dictionaries decoded
// frames re-intern into).
func (s *SpillSort) template() *storage.Relation { return s.tmpl }

func (s *SpillSort) mergeToDisk(ec *ExecContext, runs []*spill.Run, template *storage.Relation) (*spill.Run, error) {
	dir, err := ec.Spill()
	if err != nil {
		return nil, err
	}
	w, err := dir.NewRun(s.label + "-merge")
	if err != nil {
		return nil, err
	}
	err = s.mergeRuns(ec, runs, template, func(rel *storage.Relation) error {
		return w.Append(rel)
	})
	if err != nil {
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

// mergeRuns streams the stable k-way merge of sorted runs into emit as
// morsel-sized batches. Ties break by run order, which — runs partitioning
// the input in order, each stably sorted — reproduces the stable full sort.
func (s *SpillSort) mergeRuns(ec *ExecContext, runs []*spill.Run, template *storage.Relation, emit func(*storage.Relation) error) error {
	dicts := seedDicts(template)
	cursors := make([]*sortCursor, len(runs))
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.rd.Close()
			}
		}
	}()
	for i, r := range runs {
		rd, err := r.Open(dicts)
		if err != nil {
			return err
		}
		cursors[i] = &sortCursor{rd: rd}
		if err := cursors[i].advance(s.key); err != nil {
			return err
		}
	}
	b := newRelBuilder(template)
	for {
		if err := ec.Err(); err != nil {
			return err
		}
		best := -1
		var bestKey uint32
		for i, c := range cursors {
			if c.done {
				continue
			}
			if k := c.keys[c.pos]; best == -1 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best == -1 {
			break
		}
		c := cursors[best]
		b.appendFrom(c.vecs, c.pos)
		c.pos++
		if c.pos >= len(c.keys) {
			if err := c.advance(s.key); err != nil {
				return err
			}
		}
		if b.rows >= ec.MorselSize {
			rel, err := b.build()
			if err != nil {
				return err
			}
			if err := emit(rel); err != nil {
				return err
			}
			b.reset()
		}
	}
	if b.rows > 0 {
		rel, err := b.build()
		if err != nil {
			return err
		}
		return emit(rel)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Partitioned spilling, shared by grace join and spilling aggregation.

// partitionSet fans one tagged input out into spillParts hash partitions.
// Batches buffer in memory; past the spill grant, every buffered batch is
// appended — in input order — to its partition's run file, so a partition's
// frames plus its in-memory tail always hold that partition's rows in
// global input order.
type partitionSet struct {
	rv       *resv
	label    string
	key      string
	level    int
	quota    int64
	writers  [spillParts]*spill.RunWriter
	runs     [spillParts][]*spill.Run
	mem      [spillParts][]*storage.Relation
	memB     [spillParts]int64
	diskB    [spillParts]int64
	rows     [spillParts]int64
	bufTotal int64
	spilled  bool
}

func newPartitionSet(rv *resv, label, key string, level int, quota int64) *partitionSet {
	return &partitionSet{rv: rv, label: label, key: key, level: level, quota: quota}
}

// add scatters a batch across the partitions, flushing every buffer to disk
// once the set's in-memory total passes the grant.
func (ps *partitionSet) add(ec *ExecContext, batch *storage.Relation) error {
	n := batch.NumRows()
	if n == 0 {
		return nil
	}
	keys, err := spillKeyCodes(batch, ps.key)
	if err != nil {
		return err
	}
	var idx [spillParts][]int32
	for i := 0; i < n; i++ {
		p := spillBucket(keys[i], ps.level)
		idx[p] = append(idx[p], int32(i))
	}
	for p := 0; p < spillParts; p++ {
		if len(idx[p]) == 0 {
			continue
		}
		g := batch.Gather(idx[p])
		gb := g.MemBytes()
		if err := ps.rv.grab(gb); err != nil {
			if ferr := ps.flush(ec); ferr != nil {
				return ferr
			}
			if err := ps.rv.grab(gb); err != nil {
				return err
			}
		}
		ps.mem[p] = append(ps.mem[p], g)
		ps.memB[p] += gb
		ps.rows[p] += int64(len(idx[p]))
		ps.bufTotal += gb
	}
	if ps.bufTotal > ps.quota {
		return ps.flush(ec)
	}
	return nil
}

// flush appends every buffered batch to its partition's run file and
// releases the buffer reservations.
func (ps *partitionSet) flush(ec *ExecContext) error {
	if ps.bufTotal == 0 {
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if len(ps.mem[p]) == 0 {
			continue
		}
		if ps.writers[p] == nil {
			dir, err := ec.Spill()
			if err != nil {
				return err
			}
			w, err := dir.NewRun(fmt.Sprintf("%s-l%d-p%02d", ps.label, ps.level, p))
			if err != nil {
				return err
			}
			ps.writers[p] = w
			ps.rv.b.addSpill(0, 1, 0)
		}
		w := ps.writers[p]
		before := w.BytesWritten()
		for _, m := range ps.mem[p] {
			if err := w.Append(m); err != nil {
				return err
			}
		}
		ps.rv.b.addSpill(w.BytesWritten()-before, 0, 0)
		ps.diskB[p] += ps.memB[p]
		ps.rv.drop(ps.memB[p])
		ps.mem[p], ps.memB[p] = nil, 0
	}
	ps.bufTotal = 0
	ps.spilled = true
	return nil
}

// seal finishes every open run writer. Call once the input is drained,
// before loading or re-partitioning.
func (ps *partitionSet) seal() error {
	for p := 0; p < spillParts; p++ {
		if ps.writers[p] == nil {
			continue
		}
		run, err := ps.writers[p].Finish()
		ps.writers[p] = nil
		if err != nil {
			return err
		}
		ps.runs[p] = append(ps.runs[p], run)
	}
	return nil
}

// abort closes any still-open writers (error/panic path; the files
// themselves die with the query's spill.Dir).
func (ps *partitionSet) abort() {
	if ps == nil {
		return
	}
	for p := 0; p < spillParts; p++ {
		if ps.writers[p] != nil {
			ps.writers[p].Abort()
			ps.writers[p] = nil
		}
	}
}

// partBytes reports a partition's total payload (disk + in-memory tail).
func (ps *partitionSet) partBytes(p int) int64 { return ps.diskB[p] + ps.memB[p] }

// load materialises partition p as one relation in global input order,
// returning the bytes now reserved for it (the caller drops them when the
// partition is consumed). A rowless partition returns (nil, 0, nil).
func (ps *partitionSet) load(ec *ExecContext, p int, dicts map[string]*storage.Dict) (*storage.Relation, int64, error) {
	if ps.rows[p] == 0 {
		return nil, 0, nil
	}
	var parts []*storage.Relation
	var partBytes int64
	for _, run := range ps.runs[p] {
		rd, err := run.Open(dicts)
		if err != nil {
			return nil, 0, err
		}
		for {
			if err := ec.Err(); err != nil {
				rd.Close()
				return nil, 0, err
			}
			batch, err := rd.Next()
			if err != nil {
				rd.Close()
				return nil, 0, err
			}
			if batch == nil {
				break
			}
			if err := ps.rv.grab(batch.MemBytes()); err != nil {
				rd.Close()
				return nil, 0, err
			}
			partBytes += batch.MemBytes()
			parts = append(parts, batch)
		}
		if err := rd.Close(); err != nil {
			return nil, 0, err
		}
	}
	// In-memory tail comes after all frames: later rows flushed never, so
	// frame order + tail order = global input order.
	parts = append(parts, ps.mem[p]...)
	tail := ps.memB[p]
	ps.mem[p], ps.memB[p] = nil, 0 // ownership moves to the caller
	rel, err := storage.Concat(parts)
	if err != nil {
		return nil, 0, err
	}
	held := partBytes + tail
	if len(parts) > 1 {
		if err := ps.rv.grab(rel.MemBytes()); err != nil {
			return nil, 0, err
		}
		ps.rv.drop(held)
		held = rel.MemBytes()
	}
	return rel, held, nil
}

// repartition deals partition p out into a fresh set one level deeper
// (a different hash-bit window), then retires p's runs and buffers. Used
// when a partition alone still exceeds the spill grant.
func (ps *partitionSet) repartition(ec *ExecContext, p int, dicts map[string]*storage.Dict) (*partitionSet, error) {
	child := newPartitionSet(ps.rv, ps.label, ps.key, ps.level+1, ps.quota)
	ps.rv.b.addSpill(0, 0, 1)
	feed := func(batch *storage.Relation) error {
		if err := ec.Err(); err != nil {
			return err
		}
		return child.add(ec, batch)
	}
	for _, run := range ps.runs[p] {
		rd, err := run.Open(dicts)
		if err != nil {
			return nil, err
		}
		for {
			batch, err := rd.Next()
			if err != nil {
				rd.Close()
				return nil, err
			}
			if batch == nil {
				break
			}
			if err := feed(batch); err != nil {
				rd.Close()
				return nil, err
			}
		}
		if err := rd.Close(); err != nil {
			return nil, err
		}
	}
	for _, m := range ps.mem[p] {
		if err := feed(m); err != nil {
			return nil, err
		}
	}
	ps.rv.drop(ps.memB[p])
	ps.mem[p], ps.memB[p] = nil, 0
	for _, run := range ps.runs[p] {
		if err := run.Remove(); err != nil {
			return nil, err
		}
	}
	ps.runs[p] = nil
	if err := child.seal(); err != nil {
		return nil, err
	}
	return child, nil
}

// tagRows appends a global row-ordinal column to a batch, advancing *next.
func tagRows(batch *storage.Relation, tag string, next *uint32) (*storage.Relation, error) {
	if _, ok := batch.Column(tag); ok {
		return nil, qerr.New(qerr.ErrInternal, "spill: input already has reserved column %q", tag)
	}
	n := batch.NumRows()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = *next + uint32(i)
	}
	*next += uint32(n)
	cols := append(append([]*storage.Column{}, batch.Columns()...), storage.NewUint32(tag, ids))
	return storage.NewRelation(batch.Name(), cols...)
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
func NewSpillGroup(label string, child Operator, key string, aggs []expr.AggSpec, opt physical.GroupOptions, dom props.Domain) *SpillGroup {
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
	ctl := ec.CtlFor(g.label)
	rv := &resv{ctl: ctl, held: &g.held, b: &g.base}
	opt := g.opt
	opt.Ctl = ctl
	quota := ec.SpillQuota()

	var template *storage.Relation
	var parts []*storage.Relation // in-memory mode buffer (original batches)
	var bufBytes, rows int64
	var ps *partitionSet
	var nextRow uint32

	toSpillMode := func() error {
		ps = newPartitionSet(rv, g.label, g.key, 0, quota)
		g.sets = append(g.sets, ps)
		for _, b := range parts {
			tagged, err := tagRows(b, rowTagL, &nextRow)
			if err != nil {
				return err
			}
			if err := ps.add(ec, tagged); err != nil {
				return err
			}
		}
		freed := bufBytes
		parts, bufBytes = nil, 0
		rv.drop(freed)
		return ps.flush(ec)
	}

	for {
		if err := ec.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire(faultinject.PointExecDrainBatch); err != nil {
			return err
		}
		batch, err := g.child.Next(ec)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		ec.Counters.tick(batch.NumRows())
		rows += int64(batch.NumRows())
		if template == nil {
			template = batch
		}
		if batch.NumRows() == 0 {
			continue
		}
		if ps != nil {
			tagged, err := tagRows(batch, rowTagL, &nextRow)
			if err != nil {
				return err
			}
			if err := ps.add(ec, tagged); err != nil {
				return err
			}
			continue
		}
		n := batch.MemBytes()
		if err := rv.grab(n); err != nil || bufBytes+n > quota {
			if err == nil {
				rv.drop(n) // quota, not budget, tripped: re-grab inside spill mode
			}
			if err := toSpillMode(); err != nil {
				return err
			}
			tagged, terr := tagRows(batch, rowTagL, &nextRow)
			if terr != nil {
				return terr
			}
			if err := ps.add(ec, tagged); err != nil {
				return err
			}
			continue
		}
		parts = append(parts, batch)
		bufBytes += n
	}
	g.addRowsIn(rows)
	if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
		return err
	}
	if template == nil {
		return qerr.New(qerr.ErrInternal, "spill group: no input schema")
	}

	if ps == nil {
		// Everything fit: the in-memory serial twin, exactly.
		in, err := storage.Concat(orSchema(parts, template))
		if err != nil {
			return err
		}
		out, err := physical.GroupByRelDom(in, g.key, g.aggs, physical.HG, opt, g.dom)
		if err != nil {
			return err
		}
		rv.drop(bufBytes)
		if err := rv.grab(out.MemBytes()); err != nil {
			return err
		}
		g.out = out
		return nil
	}

	if err := ps.seal(); err != nil {
		return err
	}
	dicts := seedDicts(template)
	var groups []*storage.Relation
	var orders [][]uint32
	var groupBytes int64
	var process func(set *partitionSet, p int) error
	process = func(set *partitionSet, p int) error {
		if err := ec.Err(); err != nil {
			return err
		}
		if set.rows[p] == 0 {
			return nil
		}
		if set.partBytes(p) > quota && set.level+1 < spillMaxDepth {
			child, err := set.repartition(ec, p, dicts)
			if err != nil {
				return err
			}
			g.sets = append(g.sets, child)
			for q := 0; q < spillParts; q++ {
				if err := process(child, q); err != nil {
					return err
				}
			}
			return nil
		}
		rel, held, err := set.load(ec, p, dicts)
		if err != nil {
			return err
		}
		keys, err := spillKeyCodes(rel, g.key)
		if err != nil {
			return err
		}
		rowids := rel.MustColumn(rowTagL).Uint32s()
		first := make(map[uint32]uint32)
		for i, k := range keys {
			if _, ok := first[k]; !ok {
				first[k] = rowids[i]
			}
		}
		stripped, err := dropCols(rel, rowTagL)
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
		gkeys := gr.Columns()[0].Uint32s()
		ord := make([]uint32, len(gkeys))
		for i, k := range gkeys {
			ord[i] = first[k]
		}
		groups = append(groups, gr)
		orders = append(orders, ord)
		rv.drop(held)
		return nil
	}
	for p := 0; p < spillParts; p++ {
		if err := process(ps, p); err != nil {
			return err
		}
	}

	if len(groups) == 0 {
		out, err := physical.GroupByRelDom(template.Slice(0, 0), g.key, g.aggs, physical.HG, opt, g.dom)
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
	var ord []uint32
	for _, o := range orders {
		ord = append(ord, o...)
	}
	perm := make([]int32, len(ord))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return ord[perm[a]] < ord[perm[b]] })
	out := merged.Gather(perm)
	if err := rv.grab(out.MemBytes()); err != nil {
		return err
	}
	rv.drop(groupBytes)
	g.out = out
	return nil
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
func NewSpillJoin(label string, left, right Operator, leftKey, rightKey string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) *SpillJoin {
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

// joinSide is one drained side of the join: in-memory batches until the
// combined buffer passes the grant, a partition set afterwards.
type joinSide struct {
	op       Operator
	key      string
	tag      string
	template *storage.Relation
	parts    []*storage.Relation
	bufBytes int64
	ps       *partitionSet
	nextRow  uint32
}

func (j *SpillJoin) materialize(ec *ExecContext) error {
	ctl := ec.CtlFor(j.label)
	rv := &resv{ctl: ctl, held: &j.held, b: &j.base}
	opt := j.opt
	opt.Ctl = ctl
	quota := ec.SpillQuota()

	ls := &joinSide{op: j.left, key: j.leftKey, tag: rowTagL}
	rs := &joinSide{op: j.right, key: j.rightKey, tag: rowTagR}
	var rows int64
	spillMode := false

	sideToSpill := func(s *joinSide) error {
		s.ps = newPartitionSet(rv, j.label, s.key, 0, quota/2)
		j.sets = append(j.sets, s.ps)
		for _, b := range s.parts {
			tagged, err := tagRows(b, s.tag, &s.nextRow)
			if err != nil {
				return err
			}
			if err := s.ps.add(ec, tagged); err != nil {
				return err
			}
		}
		freed := s.bufBytes
		s.parts, s.bufBytes = nil, 0
		rv.drop(freed)
		return s.ps.flush(ec)
	}
	enterSpillMode := func() error {
		spillMode = true
		if err := sideToSpill(ls); err != nil {
			return err
		}
		return sideToSpill(rs)
	}

	drainSide := func(s *joinSide, other *joinSide) error {
		for {
			if err := ec.Err(); err != nil {
				return err
			}
			if err := faultinject.Fire(faultinject.PointExecDrainBatch); err != nil {
				return err
			}
			batch, err := s.op.Next(ec)
			if err != nil {
				return err
			}
			if batch == nil {
				return nil
			}
			ec.Counters.tick(batch.NumRows())
			rows += int64(batch.NumRows())
			if s.template == nil {
				s.template = batch
			}
			if batch.NumRows() == 0 {
				continue
			}
			if spillMode {
				tagged, err := tagRows(batch, s.tag, &s.nextRow)
				if err != nil {
					return err
				}
				if err := s.ps.add(ec, tagged); err != nil {
					return err
				}
				continue
			}
			n := batch.MemBytes()
			if err := rv.grab(n); err != nil || s.bufBytes+other.bufBytes+n > quota {
				if err == nil {
					rv.drop(n)
				}
				if err := enterSpillMode(); err != nil {
					return err
				}
				tagged, terr := tagRows(batch, s.tag, &s.nextRow)
				if terr != nil {
					return terr
				}
				if err := s.ps.add(ec, tagged); err != nil {
					return err
				}
				continue
			}
			s.parts = append(s.parts, batch)
			s.bufBytes += n
		}
	}
	if err := drainSide(ls, rs); err != nil {
		return err
	}
	if err := drainSide(rs, ls); err != nil {
		return err
	}
	j.addRowsIn(rows)
	if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
		return err
	}
	if ls.template == nil || rs.template == nil {
		return qerr.New(qerr.ErrInternal, "spill join: missing input schema")
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

	if !spillMode {
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

	if err := ls.ps.seal(); err != nil {
		return err
	}
	if err := rs.ps.seal(); err != nil {
		return err
	}
	ldicts := seedDicts(ls.template)
	rdicts := seedDicts(rs.template)
	var pairs []*storage.Relation
	var pairBytes int64
	var process func(lset, rset *partitionSet, p int) error
	process = func(lset, rset *partitionSet, p int) error {
		if err := ec.Err(); err != nil {
			return err
		}
		if lset.rows[p] == 0 || rset.rows[p] == 0 {
			return nil // inner join: an empty side means no matches
		}
		build := lset
		if j.swapped {
			build = rset
		}
		if build.partBytes(p) > quota/2 && lset.level+1 < spillMaxDepth {
			lchild, err := lset.repartition(ec, p, ldicts)
			if err != nil {
				return err
			}
			j.sets = append(j.sets, lchild)
			rchild, err := rset.repartition(ec, p, rdicts)
			if err != nil {
				return err
			}
			j.sets = append(j.sets, rchild)
			for q := 0; q < spillParts; q++ {
				if err := process(lchild, rchild, q); err != nil {
					return err
				}
			}
			return nil
		}
		lrel, lheld, err := lset.load(ec, p, ldicts)
		if err != nil {
			return err
		}
		rrel, rheld, err := rset.load(ec, p, rdicts)
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
	probe := merged.MustColumn(probeTag).Uint32s()
	bld := merged.MustColumn(buildTag).Uint32s()
	perm := make([]int32, merged.NumRows())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := probe[perm[a]], probe[perm[b]]
		if pa != pb {
			return pa < pb
		}
		return bld[perm[a]] > bld[perm[b]]
	})
	gathered := merged.Gather(perm)
	out, err := dropCols(gathered, rowTagL, rowTagR)
	if err != nil {
		return err
	}
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
