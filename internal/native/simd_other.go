//go:build !amd64

package native

// hasAVX is never set off amd64: there are no assembly primitives to run.
var hasAVX = false

// runStrip applies every link of the chain to m points starting at base.
// Without assembly primitives that is the pure-Go executor.
func runStrip(ls []xlink, base, m int) { runGo(ls, base, m) }
