package symbolic

// FactorCommon implements the factorisation flop-reduction pass of the
// Cluster layer (paper Section II): factors common to every term of a sum
// are pulled out front, so e.g. the dt and 1/(h*h) style coefficients of a
// solved update multiply the stencil sum once instead of every tap:
//
//	dt*r0*u[x-1] + dt*r0*u[x+1] + ...  ->  dt*r0*(u[x-1] + u[x+1] + ...)
//
// Numeric coefficients stay inside the terms (they differ per tap).
// Factors are matched by key: the pass takes a keyed tree and returns one
// (see Keyed).
func FactorCommon(k Keyed) Keyed {
	r, _ := transformKeyed(k, factorSum)
	return r
}

// factorSum pulls the factors common to every term out of a sum.
func factorSum(n Keyed) (Keyed, bool) {
	if _, ok := n.Expr.(Add); !ok || len(n.Ops) < 2 {
		return n, false
	}
	terms := n.Ops
	// Count factor occurrences (by key) in the first term, then
	// intersect with every other term.
	var buf [8]factorCount
	common := buf[:0]
	for _, f := range factorsOf(terms, 0) {
		if _, isNum := f.Expr.(Num); !isNum && countOf(common, f.Key) == 0 {
			common = append(common, factorCount{f.Key, countIn(terms, 0, f.Key)})
		}
	}
	for i := 1; i < len(terms) && len(common) > 0; i++ {
		kept := common[:0]
		for _, c := range common {
			if c.n = min(c.n, countIn(terms, i, c.key)); c.n > 0 {
				kept = append(kept, c)
			}
		}
		common = kept
	}
	if len(common) == 0 {
		return n, false
	}
	// Pull the common factors, in the first term's order, out front and
	// strip them from each term.
	commonFactors, _ := split(factorsOf(terms, 0), common)
	newTerms := make([]Keyed, len(terms))
	for i := range terms {
		_, rest := split(factorsOf(terms, i), common)
		newTerms[i] = mulKeyed(rest)
	}
	return mulKeyed(append(commonFactors, addKeyed(newTerms))), true
}

// factorCount is how many times a factor (by key) occurs.
type factorCount struct {
	key string
	n   int
}

// countOf returns the count recorded for key.
func countOf(counts []factorCount, key string) int {
	for _, c := range counts {
		if c.key == key {
			return c.n
		}
	}
	return 0
}

// factorsOf returns the factors of terms[i]: a product's factors, or the
// term itself.
func factorsOf(terms []Keyed, i int) []Keyed {
	if _, ok := terms[i].Expr.(Mul); ok {
		return terms[i].Ops
	}
	return terms[i : i+1]
}

// countIn returns how many non-numeric factors of terms[i] have key.
func countIn(terms []Keyed, i int, key string) int {
	n := 0
	for _, f := range factorsOf(terms, i) {
		if _, isNum := f.Expr.(Num); !isNum && f.Key == key {
			n++
		}
	}
	return n
}

// split separates a term's factors into the first occurrences of the
// common ones, up to their common counts, and the rest, in order.
func split(factors []Keyed, common []factorCount) (taken, rest []Keyed) {
	var buf [8]factorCount
	seen := buf[:0]
	for _, f := range factors {
		if _, isNum := f.Expr.(Num); !isNum && countOf(seen, f.Key) < countOf(common, f.Key) {
			seen = addCount(seen, f.Key)
			taken = append(taken, f)
		} else {
			if rest == nil {
				rest = make([]Keyed, 0, len(factors))
			}
			rest = append(rest, f)
		}
	}
	return taken, rest
}

// addCount records one more occurrence of key.
func addCount(counts []factorCount, key string) []factorCount {
	for i := range counts {
		if counts[i].key == key {
			counts[i].n++
			return counts
		}
	}
	return append(counts, factorCount{key, 1})
}
