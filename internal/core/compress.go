package core

import "dqo/internal/storage"

// Helpers reading storage segment encodings for the optimiser. The
// compressed granule twins enumerated in optimizer.go/greedy.go are gated on
// and costed from exact zone-map metadata via these.

// relCompression returns the encoding of the first encoded column, or
// EncNone when the relation is stored plain — the gate for enumerating a
// compressed-scan granule twin.
func relCompression(rel *storage.Relation) storage.Encoding {
	for _, c := range rel.Columns() {
		if e := c.Encoding(); e != storage.EncNone {
			return e
		}
	}
	return storage.EncNone
}

// encBounds converts predRange's half-open uint64 [lo, hi) onto the
// inclusive uint32 bounds the segment kernels compare in. ok is false when
// the range is empty or entirely above the uint32 domain.
func encBounds(lo, hi uint64) (plo, phi uint32, ok bool) {
	if hi <= lo || lo >= 1<<32 {
		return 0, 0, false
	}
	if hi > 1<<32 {
		hi = 1 << 32
	}
	return uint32(lo), uint32(hi - 1), true
}

// encFilterTarget resolves a range predicate against an encoded uint32
// column of rel: the payload's encoding and the zone-map census for the
// inclusive bounds. ok is false when the column is missing, not a plain
// uint32 column, or stored undecoded.
func encFilterTarget(rel *storage.Relation, col string, plo, phi uint32) (enc storage.Encoding, skipped, total, work int, ok bool) {
	c, have := rel.Column(col)
	if !have || c.Kind() != storage.KindUint32 {
		return storage.EncNone, 0, 0, 0, false
	}
	p, _, _, isEnc := c.EncodedView()
	if !isEnc {
		return storage.EncNone, 0, 0, 0, false
	}
	skip, full, partial, w := p.PredStats(plo, phi)
	return p.Encoding(), skip, skip + full + partial, w, true
}
