//go:build race

package repro

// raceEnabled reports whether this test binary was built with the race
// detector. Under race instrumentation sync.Pool drops recycled entries
// at random, so the session arena's steady state cannot be measured and
// the allocation test skips itself.
const raceEnabled = true
