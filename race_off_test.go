//go:build !race

package dqo

const raceEnabled = false
