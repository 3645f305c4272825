//go:build race

package obs

// raceEnabled reports that the race detector instruments this build: its
// per-access bookkeeping multiplies the cost of an atomic load, so
// wall-clock bounds on single calls do not hold.
const raceEnabled = true
