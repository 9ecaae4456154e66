package exec

import "sync/atomic"

// Counters are DB-lifetime executor counters, bumped once per morsel batch
// at pipeline boundaries (the Run drive loop and breaker drains). They are
// plain atomic adds on a pre-existing struct — no allocation, no lock — so
// they are safe to leave enabled on the hot path; a nil *Counters is a
// no-op for ungoverned callers (direct kernel tests).
type Counters struct {
	Morsels atomic.Int64 // batches consumed at pipeline boundaries
	Rows    atomic.Int64 // rows in those batches
}

// tick counts one batch of n rows. Nil-safe.
func (c *Counters) tick(n int) {
	if c == nil {
		return
	}
	c.Morsels.Add(1)
	c.Rows.Add(int64(n))
}
