package propagators

import (
	"fmt"

	"devigo/internal/core"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
)

// OnRank stands the named model up on the calling rank of c: it
// decomposes cfg's grid over the world (topology nil lets the
// decomposition choose), builds the execution context through
// core.NewContext and the model on this rank's box, and returns both to
// hand to Run / RunGradient / core.NewOperator. cfg.Decomp/Rank must be
// unset: OnRank owns the decomposition.
//
// A nil Comm or a world of one is the serial case: the model is the
// undecomposed one and the context is nil, exactly what a caller that
// never heard of ranks would build, so the same straight-line rank body
// serves every world size. On a larger world a mode that does not
// exchange is an error (core.NewContext's), never a decomposed run
// without exchanges.
func OnRank(c *mpi.Comm, model string, cfg Config, mode halo.Mode, topology []int) (*Model, *core.Context, error) {
	if cfg.Decomp != nil || cfg.Rank != 0 {
		return nil, nil, fmt.Errorf("propagators: OnRank owns the decomposition; leave Config.Decomp/Rank unset")
	}
	if c == nil || c.Size() == 1 {
		m, err := Build(model, cfg)
		return m, nil, err
	}
	g, err := grid.New(cfg.Shape, nil)
	if err != nil {
		return nil, nil, err
	}
	dec, err := grid.NewDecomposition(g, c.Size(), topology)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := core.NewContext(c, dec, mode)
	if err != nil {
		return nil, nil, err
	}
	cfg.Decomp, cfg.Rank = dec, c.Rank()
	m, err := Build(model, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, ctx, nil
}
