package symbolic

// ResetFDWeightsMemo empties FDWeights' memo, so a test can compare a cold
// expansion with a warm one.
func ResetFDWeightsMemo() { fdMemo.Clear() }

// CheckRender reports the first node of e whose String differs from the
// fmt-based reference renderer's.
func CheckRender(e Expr) error { return checkRender(e) }

// CheckKeyedWalks runs every keyed walk the passes use over exprs and
// reports the first node whose key, flop count or operands are wrong.
func CheckKeyedWalks(exprs []Expr) error { return checkKeyedWalks(exprs) }
