package consistency

// DiffOracle and ReportDump expose the oracle comparison to the external
// tests that hold Checker and the run's monitor against it on real runs
// (packages the internal tests cannot import).
var (
	DiffOracle = diffOracle
	ReportDump = reportDump
)
