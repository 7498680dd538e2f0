package metrics

// Accessors only the package's own tests use: production code adds to a
// counter and reads it back through a Snapshot.

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// Value returns process p's slot.
func (cv *CounterVec) Value(p int) int64 { return cv.slots[p] }
