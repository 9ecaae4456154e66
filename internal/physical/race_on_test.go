//go:build race

package physical

// raceEnabled lets the allocation guards skip their byte bounds: the race
// detector makes sync.Pool drop items at random, so pooled scratch is
// allocated afresh.
const raceEnabled = true
