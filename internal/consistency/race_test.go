//go:build race

package consistency

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so breaks allocation counts.
const raceEnabled = true
