package btsim

// Unregister removes a registry entry; tests that register throwaway
// systems clean up with it so the global registry stays the built-in
// seven for every other test.
func Unregister(name string) { unregister(name) }

// KnobRow is one row of the knobs table as the tests read it.
type KnobRow struct{ Field, Option, Takes string }

// KnobRows lists the knobs table.
func KnobRows() []KnobRow {
	rows := make([]KnobRow, len(knobs))
	for i, k := range knobs {
		rows[i] = KnobRow{k.field, k.option, k.takes.String()}
	}
	return rows
}
