//go:build race

package trace

// The race detector's runtime allocates on its own schedule, so
// allocation counts are not comparable under it.
func init() { raceEnabled = true }
