package stencilabft_test

import (
	"fmt"

	abft "stencilabft"
)

// ExampleBuild protects a small Jacobi run against a planned bit-flip with
// the online scheme and reports the repair — the whole lifecycle through
// the unified Spec/Build/Protector surface.
func ExampleBuild() {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](32, 32)
	init.Fill(300)

	p, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Online,
		Op2D:   op,
		Init:   init,
		Inject: abft.NewPlan(abft.Injection{Iteration: 3, X: 10, Y: 20, Bit: 30}),
	})
	if err != nil {
		panic(err)
	}
	p.Run(10)
	p.Finalize()
	s := p.Stats()
	fmt.Printf("detections=%d corrected=%d\n", s.Detections, s.CorrectedPoints)
	// Output: detections=1 corrected=1
}

// ExampleBuild_offline shows periodic verification with checkpoint
// rollback: the corruption is erased exactly. Only the Scheme (and the
// period) changes versus the online run.
func ExampleBuild_offline() {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](32, 32)
	init.Fill(300)

	p, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Offline,
		Op2D:   op,
		Init:   init,
		Period: 4,
		Inject: abft.NewPlan(abft.Injection{Iteration: 5, X: 7, Y: 8, Bit: 30}),
	})
	if err != nil {
		panic(err)
	}
	p.Run(12)
	p.Finalize()
	s := p.Stats()
	fmt.Printf("detections=%d rollbacks=%d recomputed=%d\n", s.Detections, s.Rollbacks, s.RecomputedIters)
	// Output: detections=1 rollbacks=1 recomputed=4
}

// ExampleBuild_cluster runs the distributed-memory deployment: the domain
// decomposed into row bands over simulated ranks, each protecting its own
// band with zero checksum communication. The rank owning the injected row
// repairs it locally.
func ExampleBuild_cluster() {
	op := &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: abft.Clamp}
	init := abft.New[float64](32, 40)
	init.FillFunc(func(x, y int) float64 { return 250 + float64(y) })

	p, err := abft.Build(abft.Spec[float64]{
		Scheme:     abft.Online,
		Deployment: abft.Clustered,
		Op2D:       op,
		Init:       init,
		Ranks:      4,
		Detector:   abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		// Row 25 lies in rank 2's band (rows 20..29).
		Inject: abft.NewPlan(abft.Injection{Iteration: 6, X: 11, Y: 25, Bit: 59}),
	})
	if err != nil {
		panic(err)
	}
	c := p.(*abft.Cluster[float64])
	defer c.Close() // stops the persistent rank goroutines
	p.Run(16)
	for i, s := range c.RankStats() {
		fmt.Printf("rank %d: detections=%d corrected=%d\n", i, s.Detections, s.CorrectedPoints)
	}
	g := p.Grid()
	fmt.Printf("gathered %dx%d\n", g.Nx(), g.Ny())
	// Output:
	// rank 0: detections=0 corrected=0
	// rank 1: detections=0 corrected=0
	// rank 2: detections=1 corrected=1
	// rank 3: detections=0 corrected=0
	// gathered 32x40
}

// ExampleCalibrateEpsilon measures the checksum noise floor of a
// configuration to pick a detection threshold.
func ExampleCalibrateEpsilon() {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](64, 64)
	init.Fill(300)

	cal, err := abft.CalibrateEpsilon(op, init, 16)
	if err != nil {
		panic(err)
	}
	fmt.Printf("floor below paper threshold: %v\n", cal.SuggestedEpsilon <= 1e-5)
	// Output: floor below paper threshold: true
}

// ExampleNewStencil builds a custom asymmetric kernel; exact boundary
// terms keep it false-positive free under clamp boundaries.
func ExampleNewStencil() {
	st := abft.NewStencil("upwind",
		abft.Point[float64]{DX: 0, DY: 0, W: 0.7},
		abft.Point[float64]{DX: -1, DY: 0, W: 0.2},
		abft.Point[float64]{DX: 0, DY: -1, W: 0.1},
	)
	op := &abft.Op2D[float64]{St: st, BC: abft.Clamp}
	init := abft.New[float64](48, 48)
	init.FillFunc(func(x, y int) float64 { return float64(x + y) })

	p, err := abft.Build(abft.Spec[float64]{
		Scheme:   abft.Online,
		Op2D:     op,
		Init:     init,
		Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
	})
	if err != nil {
		panic(err)
	}
	p.Run(50)
	fmt.Printf("false positives: %d\n", p.Stats().Detections)
	// Output: false positives: 0
}
