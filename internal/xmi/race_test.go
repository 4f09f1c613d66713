//go:build race

package xmi

// The race detector slows code by a factor that depends on what it
// touches, so timing ratios are not comparable under it.
func init() { raceEnabled = true }
