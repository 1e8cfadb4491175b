//go:build !race

package repro

// raceEnabled mirrors race_on_test.go for ordinary builds.
const raceEnabled = false
