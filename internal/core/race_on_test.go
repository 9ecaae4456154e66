//go:build race

package core

// raceEnabled lets the single-goroutine enumeration grids, which the race
// detector slows tenfold and can learn nothing from, skip themselves.
const raceEnabled = true
