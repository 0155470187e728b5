package dist

import (
	"fmt"
	"testing"

	"stencilabft/internal/core"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

func testInit3D(nx, ny, nz int) *grid.Grid3D[float64] {
	g := grid.New3D[float64](nx, ny, nz)
	g.FillFunc(func(x, y, z int) float64 {
		return 300 + float64((x*31+y*17+z*11)%23) + 0.25*float64(z)
	})
	return g
}

func star7() *stencil.Stencil[float64] {
	return stencil.SevenPoint3D[float64](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10)
}

// newCluster3D builds a layer cluster whose rank goroutines are stopped
// when the test ends.
func newCluster3D(t *testing.T, op *stencil.Op3D[float64], init *grid.Grid3D[float64], ranks int, opt Options[float64]) *Cluster3D[float64] {
	t.Helper()
	c, err := NewCluster3D(op, init, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reference3D runs the unprotected single-process 3-D baseline.
func reference3D(t *testing.T, op *stencil.Op3D[float64], init *grid.Grid3D[float64], iters int) *grid.Grid3D[float64] {
	t.Helper()
	ref, err := core.NewNone3D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	return ref.Grid3D()
}

// TestCluster3DMatchesReference: an error-free layer-decomposed run must
// reproduce the single-process 3-D sweep bit for bit, for every boundary
// condition and for slab counts that divide the depth evenly and unevenly —
// the 3-D face of the acceptance criterion, and the proof that the slab
// deployment is the band structure reused.
func TestCluster3DMatchesReference(t *testing.T) {
	const nx, ny, nz, iters = 14, 12, 9, 8
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, ranks := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/ranks%d", bc, ranks), func(t *testing.T) {
				op := &stencil.Op3D[float64]{St: star7(), BC: bc, BCValue: 42}
				init := testInit3D(nx, ny, nz)
				want := reference3D(t, op, init, iters)

				c := newCluster3D(t, op, init, ranks, strictOpts())
				c.Run(iters)
				if ts := c.Stats(); ts.Detections != 0 {
					t.Fatalf("false positive: %+v", ts)
				}
				if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
					t.Fatalf("3-D cluster deviates from reference by %g", diff)
				}
			})
		}
	}
}

// TestCluster3DConstantField verifies the per-slab slicing of a 3-D
// constant field in both the sweep and the interpolator.
func TestCluster3DConstantField(t *testing.T) {
	const nx, ny, nz, iters = 12, 10, 8, 6
	cfield := grid.New3D[float64](nx, ny, nz)
	cfield.FillFunc(func(x, y, z int) float64 { return 0.01 * float64(x-y+2*z) })
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp, C: cfield}
	init := testInit3D(nx, ny, nz)
	want := reference3D(t, op, init, iters)

	c := newCluster3D(t, op, init, 3, strictOpts())
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("3-D cluster deviates from reference by %g", diff)
	}
}

// TestCluster3DInjectionLocality lands a bit-flip in slab interiors and in
// the boundary layers that become a neighbour's halo (both sides of a slab
// seam, and the domain's bottom/top layers): the rank owning the layer must
// detect and repair alone, and the repaired run stays within correction
// residual of the reference.
func TestCluster3DInjectionLocality(t *testing.T) {
	const nx, ny, nz, iters = 12, 10, 9, 10
	// 3 ranks over 9 layers: slabs [0,3), [3,6), [6,9).
	cases := []struct {
		name    string
		x, y, z int
		owner   int
	}{
		{"slab-interior", 5, 4, 4, 1},
		{"seam-below", 6, 3, 2, 0}, // last layer of rank 0, rank 1's halo
		{"seam-above", 6, 3, 3, 1}, // first layer of rank 1, rank 0's halo
		{"domain-bottom", 2, 2, 0, 0},
		{"domain-top", 9, 7, 8, 2},
	}
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", bc, tc.name), func(t *testing.T) {
				op := &stencil.Op3D[float64]{St: star7(), BC: bc}
				init := testInit3D(nx, ny, nz)
				want := reference3D(t, op, init, iters)

				opt := strictOpts()
				opt.Inject = fault.NewPlan(fault.Injection{Iteration: 4, X: tc.x, Y: tc.y, Z: tc.z, Bit: 57})
				c := newCluster3D(t, op, init, 3, opt)
				c.Run(iters)
				for i, s := range c.RankStats() {
					if i == tc.owner {
						if s.Detections != 1 || s.CorrectedPoints != 1 {
							t.Fatalf("owning rank %d: %+v", i, s)
						}
					} else if s.Detections != 0 || s.CorrectedPoints != 0 {
						t.Fatalf("bystander rank %d saw the error: %+v", i, s)
					}
				}
				if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
					t.Fatalf("residual after correction too large: %g", diff)
				}
			})
		}
	}
}

// TestCluster3DSlabsAndStats checks the slab partition, iteration
// accounting, topology tag and per-direction counters of the z chain.
func TestCluster3DSlabsAndStats(t *testing.T) {
	const nx, ny, nz, iters, ranks = 10, 8, 11, 7, 3
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	c := newCluster3D(t, op, testInit3D(nx, ny, nz), ranks, strictOpts())
	prevEnd := 0
	for i := 0; i < c.Ranks(); i++ {
		z0, z1 := c.Slab(i)
		if z0 != prevEnd {
			t.Fatalf("slab %d starts at %d, want %d", i, z0, prevEnd)
		}
		if d := z1 - z0; d != nz/ranks && d != nz/ranks+1 {
			t.Fatalf("slab %d depth %d", i, d)
		}
		prevEnd = z1
	}
	if prevEnd != nz {
		t.Fatalf("slabs cover %d layers, want %d", prevEnd, nz)
	}
	c.Run(iters)
	if c.Iter() != iters {
		t.Fatalf("iterations %d, want %d", c.Iter(), iters)
	}
	for i, s := range c.RankStats() {
		if s.Topology != "layers 3" {
			t.Fatalf("rank %d topology %q", i, s.Topology)
		}
		if s.HaloExchanges != iters || s.Verifications != iters {
			t.Fatalf("rank %d counters: %+v", i, s)
		}
		wantDir := [4]int{}
		if i > 0 {
			wantDir[Up] = iters
		}
		if i < ranks-1 {
			wantDir[Down] = iters
		}
		if s.HaloByDir != wantDir {
			t.Fatalf("rank %d per-direction counters %v, want %v", i, s.HaloByDir, wantDir)
		}
	}
	ts := c.Stats()
	if ts.Iterations != iters || ts.Topology != "layers 3" {
		t.Fatalf("merged stats: %+v", ts)
	}
}

// TestCluster3DPool partitions the per-rank layer sweeps over a shared
// worker pool; results must stay bitwise identical to the sequential run.
func TestCluster3DPool(t *testing.T) {
	const nx, ny, nz, iters = 16, 14, 8, 6
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	init := testInit3D(nx, ny, nz)
	want := reference3D(t, op, init, iters)

	opt := strictOpts()
	opt.Pool = &stencil.Pool{Workers: 4}
	c := newCluster3D(t, op, init, 2, opt)
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("pooled 3-D cluster deviates from reference by %g", diff)
	}
}

// TestCluster3DValidation covers the constructor's error paths.
func TestCluster3DValidation(t *testing.T) {
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	init := testInit3D(10, 8, 6)

	if _, err := NewCluster3D(op, init, 0, Options[float64]{}); err == nil {
		t.Fatal("nRanks=0 accepted")
	}
	if _, err := NewCluster3D(op, init, -2, Options[float64]{}); err == nil {
		t.Fatal("negative nRanks accepted")
	}
	// 6 layers over 6 ranks leaves 1-layer slabs at z-radius 1.
	if _, err := NewCluster3D(op, init, 6, Options[float64]{}); err == nil {
		t.Fatal("slabs at the stencil z-radius accepted")
	}
	if _, err := NewCluster3D(op, init, 7, Options[float64]{}); err == nil {
		t.Fatal("more ranks than layers accepted")
	}
	// 3 ranks over 6 layers leaves 2-layer slabs: the thinnest radius-1 fit.
	c, err := NewCluster3D(op, init, 3, Options[float64]{})
	if err != nil {
		t.Fatalf("3 ranks over 6 layers rejected: %v", err)
	}
	c.Close()
}
