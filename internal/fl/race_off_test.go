//go:build !race

package fl

// raceEnabled reports whether the race detector is on: it instruments
// allocations and randomly drops sync.Pool entries, so allocation
// budgets are asserted only without it.
const raceEnabled = false
