package dist

import (
	"sync"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestFillEdgeHalo checks the ghost-row synthesis of the edge ranks for
// each non-periodic boundary condition.
func TestFillEdgeHalo(t *testing.T) {
	const nx, ny = 5, 9
	for _, tc := range []struct {
		bc grid.Boundary
		// wantTop(x) is the expected ghost value just above the domain,
		// wantBot(x) just below, given init value 10*y+x.
		wantTop func(x int) float64
		wantBot func(x int) float64
	}{
		{grid.Clamp, func(x int) float64 { return float64(x) }, func(x int) float64 { return float64(10*(ny-1) + x) }},
		{grid.Mirror, func(x int) float64 { return float64(10 + x) }, func(x int) float64 { return float64(10*(ny-2) + x) }},
		{grid.Constant, func(x int) float64 { return 7 }, func(x int) float64 { return 7 }},
		{grid.Zero, func(x int) float64 { return 0 }, func(x int) float64 { return 0 }},
	} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: tc.bc, BCValue: 7}
		init := grid.New[float64](nx, ny)
		init.FillFunc(func(x, y int) float64 { return float64(10*y + x) })
		c, err := NewCluster(op, init, 3, strictOpts())
		if err != nil {
			t.Fatal(err)
		}
		top, bot := c.ranks[0], c.ranks[2]
		top.fillEdgeHalo(true)
		bot.fillEdgeHalo(false)
		for x := 0; x < nx; x++ {
			if got := top.buf.Read.At(top.loX()+x, top.loY()-1); got != tc.wantTop(x) {
				t.Fatalf("%v top ghost at x=%d: got %g, want %g", tc.bc, x, got, tc.wantTop(x))
			}
			if got := bot.buf.Read.At(bot.loX()+x, bot.hiY()); got != tc.wantBot(x) {
				t.Fatalf("%v bottom ghost at x=%d: got %g, want %g", tc.bc, x, got, tc.wantBot(x))
			}
		}
	}
}

// TestFillSideHalo checks the ghost-column synthesis of the x-edge tiles of
// a 2-D rank grid for each non-periodic boundary condition — the x analogue
// of TestFillEdgeHalo the tile decomposition introduces.
func TestFillSideHalo(t *testing.T) {
	const nx, ny = 9, 6
	for _, tc := range []struct {
		bc grid.Boundary
		// wantLeft(y) is the expected ghost value just left of the domain,
		// wantRight(y) just right, given init value 10*y+x.
		wantLeft  func(y int) float64
		wantRight func(y int) float64
	}{
		{grid.Clamp, func(y int) float64 { return float64(10 * y) }, func(y int) float64 { return float64(10*y + nx - 1) }},
		{grid.Mirror, func(y int) float64 { return float64(10*y + 1) }, func(y int) float64 { return float64(10*y + nx - 2) }},
		{grid.Constant, func(y int) float64 { return 7 }, func(y int) float64 { return 7 }},
		{grid.Zero, func(y int) float64 { return 0 }, func(y int) float64 { return 0 }},
	} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: tc.bc, BCValue: 7}
		init := grid.New[float64](nx, ny)
		init.FillFunc(func(x, y int) float64 { return float64(10*y + x) })
		c, err := NewClusterGrid(op, init, 3, 1, strictOpts())
		if err != nil {
			t.Fatal(err)
		}
		left, right := c.ranks[0], c.ranks[2]
		left.fillSideHaloRows(true, left.loY(), left.hiY())
		right.fillSideHaloRows(false, right.loY(), right.hiY())
		for y := 0; y < ny; y++ {
			if got := left.buf.Read.At(left.loX()-1, left.loY()+y); got != tc.wantLeft(y) {
				t.Fatalf("%v left ghost at y=%d: got %g, want %g", tc.bc, y, got, tc.wantLeft(y))
			}
			if got := right.buf.Read.At(right.hiX(), right.loY()+y); got != tc.wantRight(y) {
				t.Fatalf("%v right ghost at y=%d: got %g, want %g", tc.bc, y, got, tc.wantRight(y))
			}
		}
	}
}

// exchangedFrame returns the extended frame rank r swept in the cluster's
// last iteration: the step swaps the double buffer, so after Run(1) the
// write half holds the initial tile plus the halos that exchange filled.
func exchangedFrame(r *rank[float64]) *grid.Grid[float64] { return r.buf.Write }

// TestExchangeHalos runs one iteration on a band chain and checks every
// rank saw its neighbours' boundary rows, and counted one exchange round
// with one message per wired direction.
func TestExchangeHalos(t *testing.T) {
	const nx, ny, ranks = 4, 12, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c, err := NewCluster(op, init, ranks, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(1)

	// Rank 1 owns rows 4..7: its top halo is row 3, its bottom halo row 8.
	mid := c.ranks[1]
	frame := exchangedFrame(mid)
	for x := 0; x < nx; x++ {
		if got := frame.At(mid.loX()+x, mid.loY()-1); got != float64(300+x) {
			t.Fatalf("top halo at x=%d: got %g", x, got)
		}
		if got := frame.At(mid.loX()+x, mid.hiY()); got != float64(800+x) {
			t.Fatalf("bottom halo at x=%d: got %g", x, got)
		}
	}
	for i, s := range c.RankStats() {
		if s.HaloExchanges != 1 {
			t.Fatalf("rank %d halo exchange counter %d", i, s.HaloExchanges)
		}
		want := [4]int{1, 1, 0, 0} // the middle band sends up and down
		switch i {
		case 0:
			want = [4]int{0, 1, 0, 0}
		case ranks - 1:
			want = [4]int{1, 0, 0, 0}
		}
		if s.HaloByDir != want {
			t.Fatalf("band rank %d per-direction counters %v, want %v", i, s.HaloByDir, want)
		}
	}
}

// TestExchangeHalosGridCorners runs one iteration on a 2x2 rank grid and checks that every halo strip — columns, rows, and crucially the
// corner blocks threaded through the full-width row messages — holds
// exactly the value the global domain has at that point, with the domain
// border synthesised by the boundary condition.
func TestExchangeHalosGridCorners(t *testing.T) {
	const nx, ny = 8, 6
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c, err := NewClusterGrid(op, init, 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(1)

	// Every extended-frame cell of every rank must equal the global
	// boundary-resolved value at its global coordinate.
	bg := grid.BoundedGrid[float64]{G: init, Cond: grid.Clamp}
	for i, r := range c.ranks {
		for ey := 0; ey < r.nyLoc+2*r.hy; ey++ {
			for ex := 0; ex < r.nxLoc+2*r.hx; ex++ {
				gx := r.tile.X0 - r.hx + ex
				gy := r.tile.Y0 - r.hy + ey
				want := bg.At(gx, gy)
				if got := exchangedFrame(r).At(ex, ey); got != want {
					t.Fatalf("rank %d (tile %v) extended cell (%d,%d) = global (%d,%d): got %g, want %g",
						i, r.tile, ex, ey, gx, gy, got, want)
				}
			}
		}
		if r.stats.HaloByDir[Up]+r.stats.HaloByDir[Down] != 1 || r.stats.HaloByDir[Left]+r.stats.HaloByDir[Right] != 1 {
			t.Fatalf("rank %d of a 2x2 grid sent %v messages, want one per wired axis side", i, r.stats.HaloByDir)
		}
	}
}

// TestExchangeHalosPeriodicTorus is the corner check under periodic
// boundaries, where every halo — wrap-around corners included — is real
// remote data.
func TestExchangeHalosPeriodicTorus(t *testing.T) {
	const nx, ny = 8, 6
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Periodic}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c, err := NewClusterGrid(op, init, 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(1)

	bg := grid.BoundedGrid[float64]{G: init, Cond: grid.Periodic}
	for i, r := range c.ranks {
		for ey := 0; ey < r.nyLoc+2*r.hy; ey++ {
			for ex := 0; ex < r.nxLoc+2*r.hx; ex++ {
				want := bg.At(r.tile.X0-r.hx+ex, r.tile.Y0-r.hy+ey)
				if got := exchangedFrame(r).At(ex, ey); got != want {
					t.Fatalf("rank %d extended cell (%d,%d): got %g, want %g", i, ex, ey, got, want)
				}
			}
		}
		if r.stats.HaloByDir != [4]int{1, 1, 1, 1} {
			t.Fatalf("torus rank %d sent %v messages, want one per direction", i, r.stats.HaloByDir)
		}
	}
}

// TestBarrier hammers the cyclic barrier across generations: no party may
// pass generation g+1 before every party has arrived at generation g.
func TestBarrier(t *testing.T) {
	const parties, gens = 8, 200
	b := newBarrier(parties)
	var mu sync.Mutex
	arrived := make([]int, parties)

	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				mu.Lock()
				arrived[p] = g + 1
				for _, a := range arrived {
					if a < g {
						mu.Unlock()
						t.Errorf("party passed generation %d while another was at %d", g, a)
						return
					}
				}
				mu.Unlock()
				b.await()
			}
		}(p)
	}
	wg.Wait()
}
