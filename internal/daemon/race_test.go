//go:build race

package daemon

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back, so pooled paths allocate by design.
const raceEnabled = true
