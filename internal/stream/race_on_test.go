//go:build race

package stream

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// items on purpose and allocation counts are therefore not deterministic.
const raceEnabled = true
