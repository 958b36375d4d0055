//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its Puts on purpose and allocation counts are not meaningful.
const raceEnabled = true
