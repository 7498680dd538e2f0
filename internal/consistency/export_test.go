package consistency

// DiffOracle exposes the oracle comparison to the external tests that
// hold Checker against it on real runs (packages the internal tests
// cannot import).
var DiffOracle = diffOracle
