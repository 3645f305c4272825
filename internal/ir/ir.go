// Package ir implements the Cluster-level intermediate representation of
// the devigo compiler: lowered equations grouped by data-dependence
// analysis, with the halo-exchange requirements detected at this level
// (paper Section III-f, Listing 4).
package ir

import (
	"fmt"

	"devigo/internal/symbolic"
)

// Cluster groups equations that share an iteration space and can legally be
// fused into one loop nest: no equation in the cluster reads, at a nonzero
// space offset, a value written by an earlier equation of the same cluster
// (such a read requires a halo exchange and therefore a cluster boundary).
type Cluster struct {
	// Eqs are lowered equations: LHS is a single Access, RHS is a
	// derivative-free, collected expression.
	Eqs []symbolic.Eq
	// Writes maps field name -> time offset written.
	Writes map[string]int
	// HaloReads lists the distributed reads that require fresh halo data:
	// field name -> set of time offsets read at nonzero space offsets.
	HaloReads map[string]map[int]bool
	// Reads lists every read of every field — centred reads included:
	// field name -> set of time offsets read at any space offset. Time
	// tiling needs the full set because a redundant ghost-shell recompute
	// turns even centred reads into reads of neighbour-owned data.
	Reads map[string]map[int]bool
	// ReadRadius is the per-field, per-dimension maximum |space offset|
	// over all reads of that field by this cluster.
	ReadRadius map[string][]int
	// Radius is the maximum stencil radius per dimension over all reads.
	Radius []int
}

// HaloReq names one field/time-offset pair whose halo must be updated
// before a cluster runs.
type HaloReq struct {
	Field   string
	TimeOff int
}

// Schedule is the ordered cluster list plus the halo requirements placed
// between them — the schedule-tree of paper Listing 4 in flat form.
type Schedule struct {
	// Preamble lists halo exchanges hoisted before the time loop
	// (time-invariant parameter fields).
	Preamble []HaloReq
	// Steps interleaves halo nodes and clusters inside the time loop.
	Steps []Step
	// NDims is the space dimensionality.
	NDims int
}

// Step is one entry of the time-loop body: a halo exchange set followed by
// a cluster (Halos may be empty).
type Step struct {
	Halos   []HaloReq
	Cluster *Cluster
}

// Lower expands derivatives, validates shapes and splits the equation list
// into clusters at flow-dependence boundaries.
func Lower(eqs []symbolic.Eq, ndims int) ([]*Cluster, error) {
	expanded := make([]symbolic.Eq, len(eqs))
	for i, e := range eqs {
		expanded[i] = symbolic.Eq{LHS: symbolic.ExpandDerivatives(e.LHS), RHS: symbolic.ExpandDerivatives(e.RHS)}
	}
	return LowerExpanded(expanded, ndims)
}

// LowerExpanded is Lower over equations whose derivatives are already
// expanded (a caller that expanded them for its own analysis hands them
// over rather than have them expanded twice).
func LowerExpanded(eqs []symbolic.Eq, ndims int) ([]*Cluster, error) {
	lowered := make([]symbolic.Eq, len(eqs))
	for i, e := range eqs {
		acc, ok := e.LHS.(symbolic.Access)
		if !ok {
			return nil, fmt.Errorf("ir: equation %d LHS must be a single function access, got %s", i, e.LHS)
		}
		for _, o := range acc.Off {
			if o != 0 {
				return nil, fmt.Errorf("ir: equation %d writes at a shifted point %s; only centered writes are supported", i, acc)
			}
		}
		lowered[i] = symbolic.Eq{LHS: acc, RHS: symbolic.Collect(e.RHS)}
	}
	var clusters []*Cluster
	cur := newCluster(ndims)
	for _, e := range lowered {
		reads := symbolic.Accesses(e.RHS)
		if cur.conflictsWith(reads) {
			clusters = append(clusters, cur)
			cur = newCluster(ndims)
		}
		cur.add(e, reads, ndims)
	}
	if len(cur.Eqs) > 0 {
		clusters = append(clusters, cur)
	}
	return clusters, nil
}

func newCluster(ndims int) *Cluster {
	return &Cluster{
		Writes:     map[string]int{},
		HaloReads:  map[string]map[int]bool{},
		Reads:      map[string]map[int]bool{},
		ReadRadius: map[string][]int{},
		Radius:     make([]int, ndims),
	}
}

// conflictsWith reports whether adding an equation whose right-hand side
// makes the reads would create an intra-cluster flow dependence through a
// stencil read: it reads, at a nonzero space offset, a (field, timeOff)
// written by this cluster.
func (c *Cluster) conflictsWith(reads []symbolic.Access) bool {
	for _, a := range reads {
		wOff, written := c.Writes[a.Fun.Name]
		if !written || wOff != a.TimeOff {
			continue
		}
		for _, o := range a.Off {
			if o != 0 {
				return true
			}
		}
	}
	return false
}

// add appends eq, whose right-hand side makes the reads.
func (c *Cluster) add(eq symbolic.Eq, reads []symbolic.Access, ndims int) {
	c.Eqs = append(c.Eqs, eq)
	lhs := eq.LHS.(symbolic.Access)
	c.Writes[lhs.Fun.Name] = lhs.TimeOff
	for _, a := range reads {
		shifted := false
		rr, ok := c.ReadRadius[a.Fun.Name]
		if !ok {
			rr = make([]int, ndims)
			c.ReadRadius[a.Fun.Name] = rr
		}
		for d, o := range a.Off {
			if o != 0 {
				shifted = true
			}
			if o < 0 {
				o = -o
			}
			if d < ndims {
				if o > c.Radius[d] {
					c.Radius[d] = o
				}
				if o > rr[d] {
					rr[d] = o
				}
			}
		}
		ro, ok := c.Reads[a.Fun.Name]
		if !ok {
			ro = map[int]bool{}
			c.Reads[a.Fun.Name] = ro
		}
		ro[a.TimeOff] = true
		if shifted {
			m, ok := c.HaloReads[a.Fun.Name]
			if !ok {
				m = map[int]bool{}
				c.HaloReads[a.Fun.Name] = m
			}
			m[a.TimeOff] = true
		}
	}
}

// ReadFields returns the distinct field names read by the cluster.
func (c *Cluster) ReadFields() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range c.Eqs {
		for _, f := range symbolic.Funcs(e.RHS) {
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f.Name)
			}
		}
	}
	return out
}

// FlopsPerPoint sums the per-point flop cost over the cluster's equations
// (after lowering), feeding the BENCH report and the performance model.
func (c *Cluster) FlopsPerPoint() int {
	n := 0
	for _, e := range c.Eqs {
		n += symbolic.FlopCount(e.RHS) + 1 // +1 for the store-side assignment
	}
	return n
}
