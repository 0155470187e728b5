package main

import (
	"fmt"
	"math/rand"
	"time"

	abft "stencilabft"
	"stencilabft/internal/hotspot"
	"stencilabft/internal/metrics"
)

// The hotspot3d workload: the paper's Section 5 application at its large
// tile, online ABFT, local deployment on a two-worker pool, with one seeded
// exponent-bit flip every flipEvery steps. One op is one step.
const (
	hsNx, hsNy, hsNz = 512, 512, 8
	flipEvery        = 64
	hsSetupReps      = 7
	// hsL2Tolerance bounds the l2 distance between the corrected run and
	// an unprotected fault-free run of the same length. Online correction
	// is not bit-exact: it restores a flipped point from checksums, which
	// leaves a small rounding residue per flip.
	hsL2Tolerance = 0.05
)

func hotspotInputs(seed int64) (*abft.Op3D[float32], *abft.Grid3D[float32], error) {
	cfg := hotspot.Config{Nx: hsNx, Ny: hsNy, Nz: hsNz}
	model, err := hotspot.NewModel[float32](cfg)
	if err != nil {
		return nil, nil, err
	}
	power := hotspot.SyntheticPower[float32](cfg, seed)
	init := hotspot.SyntheticTemperature[float32](cfg, seed+1)
	return model.Op(power), init, nil
}

// flipPlan schedules one flip in bits 23-30 (the float32 exponent) at a
// seeded point in each block of flipEvery steps, for more steps than any
// run takes.
func flipPlan(seed int64) (*abft.Plan, map[int]bool) {
	rng := rand.New(rand.NewSource(seed + 2))
	var injs []abft.Injection
	at := make(map[int]bool)
	for block := 0; block < 4096; block++ {
		in := abft.Injection{
			Iteration: block*flipEvery + rng.Intn(flipEvery),
			X:         rng.Intn(hsNx), Y: rng.Intn(hsNy), Z: rng.Intn(hsNz),
			Bit: 23 + rng.Intn(8),
		}
		injs = append(injs, in)
		at[in.Iteration] = true
	}
	return abft.NewPlan(injs...), at
}

func runHotspot(env *runEnv) (*outcome, error) {
	o := &outcome{layers: metricSet{}}
	pool := &abft.Pool{Workers: 2}
	defer pool.Close()
	plan, flipAt := flipPlan(env.seed)
	det := abft.Detector[float32]{Epsilon: 1e-5, AbsFloor: 1}

	var (
		p        abft.Protector[float32]
		injector *abft.Injector[float32]
		op       *abft.Op3D[float32]
		init     *abft.Grid3D[float32]
		err      error
	)
	for range hsSetupReps {
		start := time.Now()
		if op, init, err = hotspotInputs(env.seed); err != nil {
			return nil, err
		}
		injector = abft.NewInjector[float32](plan)
		p, err = abft.Build(abft.Spec[float32]{
			Scheme: abft.Online, Op3D: op, Init3D: init,
			Detector: det, Pool: pool, InjectSource: injector,
		})
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	// Traced runs alternate blocks with spans on and off, so the span
	// overhead is measured under the same host conditions.
	var on, off, flipLat, cleanLat []float64
	prev := p.Stats()
	flipSteps, flipsDetected := 0, 0
	start := time.Now()
	deadline := start.Add(env.measure)
	// A traced run takes at least one flip block, so every flip metric
	// has a sample.
	for i := 0; time.Now().Before(deadline) || (env.tr != nil && i < flipEvery); i++ {
		traced := env.tr != nil && i/8%2 == 0
		tr := env.tr.orNil(traced)
		iter := p.Iter()
		root := tr.begin("op", -1, i)
		t := time.Now()
		s := tr.begin("core.step", root, i)
		p.Step()
		tr.end(s)
		lat := msSince(t)
		c := tr.begin("bench.check", root, i)
		st := p.Stats()
		tr.end(c)
		tr.end(root)

		o.lat = append(o.lat, lat)
		o.attempted++
		detected := st.Detections - prev.Detections
		corrected := st.CorrectedPoints - prev.CorrectedPoints
		prev = st
		if flipAt[iter] {
			flipSteps++
		}
		switch {
		case flipAt[iter] && (detected < 1 || corrected < 1):
			o.fail("step %d: injected flip not detected and corrected (detections +%d, corrected +%d)", iter, detected, corrected)
		case flipAt[iter]:
			flipsDetected++
			flipLat = append(flipLat, lat)
		case detected != 0:
			o.fail("step %d: %d detections without an injected flip", iter, detected)
		default:
			cleanLat = append(cleanLat, lat)
		}
		if traced {
			on = append(on, lat)
		} else {
			off = append(off, lat)
		}
	}
	o.wall = time.Since(start).Seconds()
	hits := len(injector.Hits())
	if hits != flipSteps {
		o.fail("%d flips landed but %d were scheduled in the run", hits, flipSteps)
	}

	// Unprotected fault-free reference of the same length.
	ref, err := abft.Build(abft.Spec[float32]{Op3D: op, Init3D: init, Pool: pool})
	if err != nil {
		return nil, err
	}
	ref.Run(p.Iter())
	l2 := metrics.L2Error3D(p.Grid3D(), ref.Grid3D())
	if !(l2 <= hsL2Tolerance) {
		o.fail("l2 %.3g against the fault-free reference exceeds %.3g", l2, hsL2Tolerance)
	}
	fmt.Printf("hotspot3d: %d steps, %d flips injected, l2 vs fault-free reference %.3g (tolerance %.3g)\n",
		p.Iter(), hits, l2, hsL2Tolerance)

	if env.tr == nil {
		return o, nil
	}
	m := o.layers
	m.set("core.flips_injected", "count", float64(hits))
	m.set("core.flips_detected", "count", float64(flipsDetected))
	m.set("core.points_corrected", "count", float64(p.Stats().CorrectedPoints))
	m.set("core.l2_after_correction", "l2", l2)
	m.set("core.flip_step_extra_ms", "ms", median(flipLat)-median(cleanLat))
	m.set("trace.overhead_pct.hotspot3d", "%", overheadPct(on, off))
	stencilLayers(m, op, init, pool)
	return o, coreOverhead(m, op, init, pool, det)
}

// stencilLayers times the kernel layer on the workload's own operator:
// one z-boundary layer (every point through the bounded slow path), one
// interior layer, a plain single-thread sweep and the pooled sweep.
func stencilLayers(m metricSet, op *abft.Op3D[float32], init *abft.Grid3D[float32], pool *abft.Pool) {
	src := init.Clone()
	dst := abft.New3D[float32](hsNx, hsNy, hsNz)
	b := make([]float32, hsNy)
	timeIt := func(reps int, f func()) float64 {
		var ms []float64
		for range reps {
			t := time.Now()
			f()
			ms = append(ms, msSince(t))
		}
		return median(ms)
	}
	boundary := timeIt(9, func() { op.SweepLayer(dst, src, 0, b, nil) })
	interior := timeIt(9, func() { op.SweepLayer(dst, src, hsNz/2, b, nil) })
	single := timeIt(5, func() { op.Sweep(dst, src) })
	pooled := timeIt(9, func() { op.SweepParallel(pool, dst, src, nil) })
	// Computed bytes per sweep: read src and C, write dst, 4 bytes each.
	bytes := float64(hsNx*hsNy*hsNz) * 3 * 4
	m.set("stencil.layer_boundary_ms", "ms", boundary)
	m.set("stencil.layer_interior_ms", "ms", interior)
	m.set("stencil.sweep3d_1t_ms", "ms", single)
	m.set("stencil.pool_speedup", "x", single/pooled)
	m.set("stencil.gbps_computed", "GB/s", bytes/(pooled*1e6))
}

// coreOverhead prices the online ABFT layer against the unprotected step
// on the same pool, in interleaved blocks so host drift cancels: the
// paper's <8% figure.
func coreOverhead(m metricSet, op *abft.Op3D[float32], init *abft.Grid3D[float32], pool *abft.Pool, det abft.Detector[float32]) error {
	none, err := abft.Build(abft.Spec[float32]{Op3D: op, Init3D: init, Pool: pool})
	if err != nil {
		return err
	}
	online, err := abft.Build(abft.Spec[float32]{Scheme: abft.Online, Op3D: op, Init3D: init, Pool: pool, Detector: det})
	if err != nil {
		return err
	}
	var tNone, tOnline []float64
	for round := 0; round < 6; round++ {
		for _, c := range []struct {
			p   abft.Protector[float32]
			out *[]float64
		}{{none, &tNone}, {online, &tOnline}} {
			for range 4 {
				t := time.Now()
				c.p.Step()
				*c.out = append(*c.out, msSince(t))
			}
		}
	}
	if d := online.Stats().Detections; d != 0 {
		return fmt.Errorf("core overhead probe: %d false detections", d)
	}
	m.set("core.step_none_ms", "ms", median(tNone))
	m.set("core.step_online_ms", "ms", median(tOnline))
	m.set("core.abft_overhead_pct", "%", 100*(median(tOnline)/median(tNone)-1))
	return nil
}
