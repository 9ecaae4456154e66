package exec

import (
	"fmt"
	"sync/atomic"

	"dqo/internal/storage"
)

// ---------------------------------------------------------------------------
// Direct-on-compressed operators. These are the execution side of the
// compressed granule twins the optimiser enumerates (see internal/core):
// CompressedScan decodes each segment exactly once up front and streams
// plain morsels, and CompressedFilter evaluates a range predicate on the
// encoded payload itself — zone maps answer whole segments, RLE runs decide
// once per run, packed segments compare in delta space — then gathers only
// the qualifying rows. Both produce byte-identical output to their
// decode-then-operate twins.

// CompressedScan streams a compressed base relation: the first Next
// materialises every encoded column with one sequential segment decode, and
// subsequent calls emit zero-copy morsel views of the plain result — no
// per-morsel decode or allocation beyond the view headers.
type CompressedScan struct {
	base
	rel  *storage.Relation
	out  *storage.Relation
	pos  int
	held int64 // bytes reserved against the query budget; released in Close
}

// NewCompressedScan returns a decode-once scan over rel.
func NewCompressedScan(label Labeler, rel *storage.Relation) *CompressedScan {
	return &CompressedScan{base: base{label: label}, rel: rel}
}

// Open implements Operator.
func (s *CompressedScan) Open(ec *ExecContext) error { s.out, s.pos = nil, 0; return nil }

// Next implements Operator.
func (s *CompressedScan) Next(ec *ExecContext) (*storage.Relation, error) {
	defer s.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if s.out == nil {
		out := s.rel.Materialize()
		// Reserve the decoded payload: what materialisation added on top of
		// the encoded segments.
		if need := out.MemBytes() - s.rel.MemBytes(); need > 0 {
			if err := ec.Ctl().Reserve(need); err != nil {
				return nil, err
			}
			atomic.AddInt64(&s.held, need)
		}
		s.out = out
		s.peak(out.MemBytes())
	}
	return emitChunk(ec, &s.base, s.out, &s.pos)
}

// Close implements Operator.
func (s *CompressedScan) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&s.held, 0))
	return nil
}

// Children implements Operator.
func (s *CompressedScan) Children() []Operator { return nil }

// CompressedFilter answers a range filter [lo, hi] on one encoded column
// directly on the compressed payload, replacing the scan+filter pair the
// same way IndexScan does: the first Next runs the segment-level selection
// over the whole base table, gathers the qualifying rows once (ascending,
// so output order matches the decoded filter exactly), and streams the
// result in morsel chunks.
type CompressedFilter struct {
	base
	rel      *storage.Relation
	col      string
	plo, phi uint32 // inclusive value (or dictionary-code) bounds
	out      *storage.Relation
	pos      int
	held     int64 // bytes reserved against the query budget; released in Close
}

// NewCompressedFilter returns a direct filter of rel by plo <= col <= phi.
func NewCompressedFilter(label Labeler, rel *storage.Relation, col string, plo, phi uint32) *CompressedFilter {
	return &CompressedFilter{base: base{label: label}, rel: rel, col: col, plo: plo, phi: phi}
}

// Open implements Operator.
func (f *CompressedFilter) Open(ec *ExecContext) error { f.out, f.pos = nil, 0; return nil }

// Next implements Operator.
func (f *CompressedFilter) Next(ec *ExecContext) (*storage.Relation, error) {
	defer f.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if f.out == nil {
		f.addRowsIn(int64(f.rel.NumRows()))
		c, ok := f.rel.Column(f.col)
		if !ok {
			return nil, fmt.Errorf("exec: CompressedFilter: no column %q", f.col)
		}
		p, vlo, vhi, ok := c.EncodedView()
		if !ok {
			return nil, fmt.Errorf("exec: CompressedFilter: column %q is not encoded", f.col)
		}
		sel, _ := p.SelectRange(vlo, vhi, f.plo, f.phi, nil)
		if vlo != 0 {
			for i := range sel {
				sel[i] -= int32(vlo)
			}
		}
		// Reserve the gather output before allocating it, like IndexScan.
		if n := f.rel.NumRows(); n > 0 {
			need := int64(len(sel)) * (f.rel.MemBytes() / int64(n))
			if err := ec.Ctl().Reserve(need); err != nil {
				return nil, err
			}
			atomic.AddInt64(&f.held, need)
		}
		f.out = f.rel.Gather(sel)
		f.peak(f.out.MemBytes())
	}
	return emitChunk(ec, &f.base, f.out, &f.pos)
}

// Close implements Operator.
func (f *CompressedFilter) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&f.held, 0))
	return nil
}

// Children implements Operator.
func (f *CompressedFilter) Children() []Operator { return nil }
