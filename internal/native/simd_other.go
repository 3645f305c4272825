//go:build !amd64

package native

// hasAVX is never set off amd64: there are no assembly handlers to run.
var hasAVX = false

// handlers returns form i's handler addresses: none.
func handlers(int32) [2]uintptr { return [2]uintptr{} }

// runOps executes one run over a row of n points, start elements after the
// run's first row. Without assembly that is the pure-Go executor.
func runOps(fs []form, ops []xop, n, start int) { goRun(fs, ops, 0, n, start) }
