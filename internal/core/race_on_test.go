//go:build race

package core

// raceEnabled reports that the race detector instruments this build: it
// allocates for its own bookkeeping, so allocation counts do not hold.
const raceEnabled = true
