//go:build race

package dqo

// raceEnabled lets the allocation guards skip themselves: the race detector
// makes sync.Pool drop items at random, so pooled scratch is allocated afresh.
const raceEnabled = true
