package exec

import (
	"fmt"

	"dqo/internal/storage"
)

// ---------------------------------------------------------------------------
// Direct-on-compressed sources. These are the execution side of the
// compressed granule twins the optimiser enumerates (see internal/core): a
// compressed scan decodes each segment exactly once up front and streams
// plain morsels, and a compressed filter evaluates a range predicate on the
// encoded payload itself — zone maps answer whole segments, RLE runs decide
// once per run, packed segments compare in delta space — then gathers only
// the qualifying rows. Both produce byte-identical output to their
// decode-then-operate twins.

// NewCompressedScan returns a decode-once scan over a compressed base
// relation: the first Next materialises every encoded column with one
// sequential segment decode, and later calls emit zero-copy morsel views of
// the plain result — no per-morsel decode or allocation beyond the view
// headers.
func NewCompressedScan(label Labeler, rel *storage.Relation) *Materialize {
	return newSource(label, func(_ *ExecContext, h *holder) (*storage.Relation, error) {
		// Reserve the decoded payload: what materialisation adds on top of
		// the encoded segments. Measured before decoding, since a decoded
		// column keeps its buffer and counts it from then on.
		encoded := rel.MemBytes()
		out := rel.Materialize()
		if err := h.take(out.MemBytes() - encoded); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// NewCompressedFilter returns a direct filter of rel by plo <= col <= phi
// (inclusive value or dictionary-code bounds). Like NewIndexScan it replaces
// the scan+filter pair: the segment-level selection runs over the whole base
// table and the qualifying rows are gathered once, ascending, so output order
// matches the decoded filter exactly.
func NewCompressedFilter(label Labeler, rel *storage.Relation, col string, plo, phi uint32) *Materialize {
	return newSource(label, func(_ *ExecContext, h *holder) (*storage.Relation, error) {
		h.b.addRowsIn(int64(rel.NumRows()))
		c, ok := rel.Column(col)
		if !ok {
			return nil, fmt.Errorf("exec: CompressedFilter: no column %q", col)
		}
		p, vlo, vhi, ok := c.EncodedView()
		if !ok {
			return nil, fmt.Errorf("exec: CompressedFilter: column %q is not encoded", col)
		}
		sel, _ := p.SelectRange(vlo, vhi, plo, phi, nil)
		if vlo != 0 {
			for i := range sel {
				sel[i] -= int32(vlo)
			}
		}
		return h.gather(rel, sel)
	})
}
