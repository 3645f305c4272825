package symbolic

// ResetFDWeightsMemo empties FDWeights' memo, so a test can compare a cold
// expansion with a warm one.
func ResetFDWeightsMemo() { fdMemo.Clear() }
