//go:build race

package scenario

// The race detector's instrumentation allocates, so allocation counts
// measured under it are not the program's.
func init() { raceEnabled = true }
