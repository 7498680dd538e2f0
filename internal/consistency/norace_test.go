//go:build !race

package consistency

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
