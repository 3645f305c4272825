package symbolic

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
)

// taylorWeights is the test oracle: it solves the Taylor table
//
//	sum_k w_k * offsets_k^j / j! = delta_{j,m}   for j = 0..n-1
//
// by Gauss-Jordan elimination in exact rationals (the algorithm FDWeights
// used before the recurrence replaced it).
func taylorWeights(m int, offsets []*big.Rat) ([]*big.Rat, error) {
	n := len(offsets)
	A := make([][]*big.Rat, n)
	fact := big.NewRat(1, 1)
	for j := 0; j < n; j++ {
		if j > 1 {
			fact.Mul(fact, big.NewRat(int64(j), 1))
		}
		A[j] = make([]*big.Rat, n+1)
		for k, o := range offsets {
			p := big.NewRat(1, 1)
			for e := 0; e < j; e++ {
				p.Mul(p, o)
			}
			A[j][k] = p.Quo(p, fact)
		}
		A[j][n] = new(big.Rat)
		if j == m {
			A[j][n].SetInt64(1)
		}
	}
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && A[pivot][col].Sign() == 0 {
			pivot++
		}
		if pivot == n {
			return nil, fmt.Errorf("singular Taylor system")
		}
		A[col], A[pivot] = A[pivot], A[col]
		inv := new(big.Rat).Inv(A[col][col])
		for j := col; j <= n; j++ {
			A[col][j].Mul(A[col][j], inv)
		}
		for row := 0; row < n; row++ {
			if row == col || A[row][col].Sign() == 0 {
				continue
			}
			factor := new(big.Rat).Set(A[row][col])
			for j := col; j <= n; j++ {
				A[row][j].Sub(A[row][j], new(big.Rat).Mul(factor, A[col][j]))
			}
		}
	}
	w := make([]*big.Rat, n)
	for k := range w {
		w[k] = A[k][n]
	}
	return w, nil
}

func ratStrings(rs []*big.Rat) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.RatString()
	}
	return strings.Join(parts, " ")
}

type stencil struct {
	m       int
	offsets []*big.Rat
}

// fdStencils lists every stencil expandDeriv builds, at accuracies up to 32.
func fdStencils() map[string]stencil {
	out := map[string]stencil{
		"forward-time m1": {1, ratSlice(0, 1)},
		"forward-time m2": {2, ratSlice(0, 1, 2)},
	}
	for _, acc := range []int{2, 4, 6, 8, 10, 12, 14, 16, 32} {
		for _, m := range []int{1, 2} {
			out[fmt.Sprintf("central m%d acc%d", m, acc)] = stencil{m, CentralOffsets(m, acc)}
		}
		for _, side := range []int{+1, -1} {
			out[fmt.Sprintf("staggered acc%d side%+d", acc, side)] = stencil{1, StaggeredOffsets(acc, side)}
		}
	}
	return out
}

func TestFDWeightsMatchTaylorSystem(t *testing.T) {
	for name, s := range fdStencils() {
		want, err := taylorWeights(s.m, s.offsets)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := FDWeights(s.m, s.offsets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g, w := ratStrings(got), ratStrings(want); g != w {
			t.Errorf("%s: recurrence %s, Taylor solve %s", name, g, w)
		}
	}
}

func TestFDWeightsClosedForms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       int
		offsets []*big.Rat
		want    string
	}{
		{"so-2 second derivative", 2, CentralOffsets(2, 2), "1 -2 1"},
		{"so-4 second derivative", 2, CentralOffsets(2, 4), "-1/12 4/3 -5/2 4/3 -1/12"},
		{"so-2 staggered first derivative", 1, StaggeredOffsets(2, +1), "-1 1"},
	} {
		w, err := FDWeights(tc.m, tc.offsets)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ratStrings(w); got != tc.want {
			t.Errorf("%s: weights %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFDWeightsRejectsBadStencils(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       int
		offsets []*big.Rat
	}{
		{"negative order", -1, ratSlice(-1, 0, 1)},
		{"order not below point count", 3, ratSlice(-1, 0, 1)},
		{"no points", 0, nil},
		{"repeated offset", 1, ratSlice(-1, 0, 0, 1)},
		{"repeated half offset", 1, []*big.Rat{big.NewRat(-1, 2), big.NewRat(1, 2), big.NewRat(2, 4)}},
	} {
		if w, err := FDWeights(tc.m, tc.offsets); err == nil {
			t.Errorf("%s: got weights %s, want an error", tc.name, ratStrings(w))
		}
	}
}

func TestFDWeightsMemoConcurrent(t *testing.T) {
	ResetFDWeightsMemo()
	stencils := fdStencils()
	want := map[string]string{}
	for name, s := range stencils {
		w, err := taylorWeights(s.m, s.offsets)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = ratStrings(w)
	}
	names := make([]string, 0, len(stencils))
	for name := range stencils {
		names = append(names, name)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*2*len(names))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range names {
				// Every goroutine asks for the same key first, then each
				// walks the keys from its own starting point.
				for _, name := range []string{names[0], names[(i+g)%len(names)]} {
					s := stencils[name]
					w, err := FDWeights(s.m, s.offsets)
					if err != nil {
						errs <- fmt.Sprintf("%s: %v", name, err)
						continue
					}
					if got := ratStrings(w); got != want[name] {
						errs <- fmt.Sprintf("%s: %s, want %s", name, got, want[name])
					}
					w[0].SetInt64(7) // each caller owns its copy
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestFDWeightsCallerOwnsResult(t *testing.T) {
	offs := CentralOffsets(2, 4)
	w, err := FDWeights(2, offs)
	if err != nil {
		t.Fatal(err)
	}
	want := ratStrings(w)
	w[0].SetInt64(42)
	w[2].Neg(w[2])
	w[4] = nil
	again, err := FDWeights(2, offs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ratStrings(again); got != want {
		t.Errorf("after mutating a returned slice: %s, want %s", got, want)
	}
}
