//go:build !race

package scenario

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
