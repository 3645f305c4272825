package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckNorm(t *testing.T) {
	for _, norm := range []float64{0, 0.89, math.MaxFloat64} {
		if err := checkNorm("acoustic", 200, norm); err != nil {
			t.Errorf("finite norm %v rejected: %v", norm, err)
		}
	}
	for _, norm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := checkNorm("elastic", 200, norm)
		if err == nil {
			t.Errorf("norm %v accepted", norm)
			continue
		}
		for _, want := range []string{"elastic", "200"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("norm %v: error %q does not name %q", norm, err, want)
			}
		}
	}
}
