//go:build race

package server

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what it is given, so allocation counts of pooled paths are not exact.
const raceEnabled = true
