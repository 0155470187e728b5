package dist

import (
	"fmt"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Cluster3D runs a 3-D stencil domain decomposed into z-layer slabs over
// simulated ranks, each protected by its own per-layer online ABFT
// instance — the layer deployment of the topology-neutral decomposition.
// Along z it is structurally the 1-D row-band cluster (a chain of ranks
// exchanging one halo strip per side through the same Transport seam,
// wired as a 1-by-nRanks grid), which is what makes it nearly free on top
// of the Decomp refactor. Running it is the 2-D cluster's driver verbatim:
// persistent rank goroutines, Run/RunRecover with fault capture, AfterStep,
// Close and the merged counters. It satisfies the unified protector
// contract: Step and Run apply the injection plan configured in Options,
// Grid3D gathers the global domain, Stats merges the per-rank counters.
type Cluster3D[T num.Float] struct {
	driver[T, *rank3d[T]]
	nx, ny, nz int
	decomp     Decomp // z chain as a 1-by-nRanks grid over (1, nz)
}

// NewCluster3D decomposes init into nRanks z-layer slabs wired through the
// transport. Remainder layers are distributed one per rank from the bottom,
// so slab depths differ by at most one layer. Every slab must be strictly
// thicker than the stencil's z-radius; a larger nRanks returns an error.
func NewCluster3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], nRanks int, opt Options[T]) (*Cluster3D[T], error) {
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	// The z chain reuses the band geometry: a 1-by-nRanks rank grid whose
	// "rows" are layer slabs. Decomp.Validate supplies the thin-slab
	// invariant (slabs strictly thicker than the z-radius); only the error
	// wording is re-phrased in layer terms.
	d := Decomp{Nx: 1, Ny: nz, RanksX: 1, RanksY: nRanks}
	rz := op.St.RadiusZ()
	if d.RanksY < 1 {
		return nil, fmt.Errorf("dist: invalid rank count %d", nRanks)
	}
	if err := d.Validate(0, rz); err != nil {
		return nil, fmt.Errorf("dist: %d ranks over %d layers leaves slabs of %d layer(s), need more than the stencil z-radius %d (at most %d rank(s) fit)",
			nRanks, nz, nz/nRanks, rz, maxParts(nz, rz))
	}
	if opt.LocalRanks != nil {
		return nil, fmt.Errorf("dist: LocalRanks (multi-process hosting) supports 2-D grid clusters only; the 3-D layer cluster runs all slabs in-process")
	}
	if opt.HaloDepth > 1 {
		return nil, fmt.Errorf("dist: HaloDepth %d (depth-k ghost zones) supports 2-D grid clusters only; the 3-D layer cluster exchanges every iteration", opt.HaloDepth)
	}
	opt = opt.withDefaults()

	c := &Cluster3D[T]{nx: nx, ny: ny, nz: nz, decomp: d}
	c.tr = opt.NewTransport(1, nRanks, op.BC == grid.Periodic)
	for i := 0; i < nRanks; i++ {
		t := d.TileOf(i) // Y axis carries the layer range
		r, err := newRank3D(op, init, i, t.Y0, t.Y1, rz, opt)
		if err != nil {
			return nil, err
		}
		r.tr = c.tr
		r.stats.Topology = fmt.Sprintf("layers %d", nRanks)
		r.tel = opt.Telemetry.Recorder(i)
		c.ranks = append(c.ranks, r)
	}
	c.start(c.routePlan(opt.Inject), opt.AfterStep, 1)
	return c, nil
}

// Ranks returns the number of ranks in the cluster.
func (c *Cluster3D[T]) Ranks() int { return len(c.ranks) }

// Slab returns the global layer range [z0, z1) owned by rank i.
func (c *Cluster3D[T]) Slab(i int) (z0, z1 int) {
	r := c.ranks[i]
	return r.z0, r.z1
}

// Gather reassembles the global domain from the ranks' current slab states.
// Call it between Run calls, never concurrently with one.
func (c *Cluster3D[T]) Gather() *grid.Grid3D[T] {
	g := grid.New3D[T](c.nx, c.ny, c.nz)
	for _, r := range c.ranks {
		for z := r.z0; z < r.z1; z++ {
			g.Layer(z).CopyFrom(r.buf.Read.Layer(r.slabLo() + z - r.z0))
		}
	}
	return g
}

// Grid3D gathers and returns the global domain state; an alias for Gather
// that completes the unified protector contract. Each call reassembles the
// domain from the rank slabs, so hoist it out of hot loops.
func (c *Cluster3D[T]) Grid3D() *grid.Grid3D[T] { return c.Gather() }

// Grid returns nil: Cluster3D decomposes 3-D domains.
func (c *Cluster3D[T]) Grid() *grid.Grid[T] { return nil }

// routePlan splits a global fault plan into per-rank plans with the
// injection layer translated into the owning rank's extended-grid frame.
// Injections outside the domain are dropped.
func (c *Cluster3D[T]) routePlan(plan *fault.Plan) []*fault.Injector[T] {
	perRank := make([][]fault.Injection, len(c.ranks))
	if plan == nil {
		return injectors[T](perRank)
	}
	for _, inj := range plan.Injections() {
		if inj.X < 0 || inj.X >= c.nx || inj.Y < 0 || inj.Y >= c.ny || inj.Z < 0 || inj.Z >= c.nz {
			continue
		}
		i := c.decomp.OwnerOf(0, inj.Z)
		r := c.ranks[i]
		local := inj
		local.Z = inj.Z - r.z0 + r.h
		perRank[i] = append(perRank[i], local)
	}
	return injectors[T](perRank)
}
