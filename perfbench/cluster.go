package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	abft "stencilabft"
	"stencilabft/internal/dist"
	"stencilabft/internal/stats"
)

// The cluster-tcp workload: 2-D laplace5 float64 at 512², online ABFT, on
// a 2x1 rank grid whose halos cross real loopback sockets (the tcp
// transport with every rank hosted in this process, one rank per core),
// overlap schedule with k=1. One op is Run(clStepsPerOp).
const (
	clN      = 512
	clRanksX = 2
	clRanksY = 1
	clWarmup = 4
	// clSetupReps repeats the few-millisecond set-up enough for a steady
	// median.
	clSetupReps = 31
	// clStepsPerOp: a single step takes about 0.85 ms or about 1.5 ms
	// with nothing in between, so the median of single steps jumps
	// between the two modes from run to run. An op of 8 steps averages
	// the mix into one steady figure.
	clStepsPerOp = 8
	clBlockOp    = 8 // ops per block when traced runs alternate clusters
)

func clusterInputs(seed int64) (*abft.Op2D[float64], *abft.Grid[float64]) {
	rng := rand.New(rand.NewSource(seed))
	init := abft.New[float64](clN, clN)
	init.FillFunc(func(x, y int) float64 { return 100 + 50*rng.Float64() })
	return &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: abft.Clamp}, init
}

// clusterSpec is the workload's deployment: online ABFT over the tcp
// transport (or the channel transport when tcp is false).
func clusterSpec(op *abft.Op2D[float64], init *abft.Grid[float64], tcp bool, tel *abft.Telemetry) abft.Spec[float64] {
	s := abft.Spec[float64]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op2D: op, Init: init, RanksX: clRanksX, RanksY: clRanksY,
		Detector:  abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Telemetry: tel,
	}
	if tcp {
		s.Transport = abft.TransportTCP
		s.LocalRanks = []int{0, 1}
		s.Rendezvous = "127.0.0.1:0"
	}
	return s
}

func buildCluster(spec abft.Spec[float64]) (*abft.Cluster[float64], error) {
	p, err := abft.Build(spec)
	if err != nil {
		return nil, err
	}
	return p.(*abft.Cluster[float64]), nil
}

func runClusterTCP(env *runEnv) (*outcome, error) {
	o := &outcome{layers: metricSet{}}
	op, init := clusterInputs(env.seed)

	// Set-up: rendezvous, dial and Build. Every repetition but the last is
	// closed again, so set-up also exercises teardown.
	var c *abft.Cluster[float64]
	for i := range clSetupReps {
		start := time.Now()
		var err error
		if c, err = buildCluster(clusterSpec(op, init, true, nil)); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		if i < clSetupReps-1 {
			c.Close()
		}
	}
	defer c.Close()
	c.Run(clWarmup)

	// A traced run alternates blocks between this cluster and a twin built
	// with the library's telemetry on and spans recorded, so the tracing
	// overhead is measured under the same host conditions.
	var (
		twin    *abft.Cluster[float64]
		tel     *abft.Telemetry
		on, off []float64
	)
	if env.tr != nil {
		tel = abft.NewTelemetry(0)
		var err error
		if twin, err = buildCluster(clusterSpec(op, init, true, tel)); err != nil {
			return nil, err
		}
		defer twin.Close()
		twin.Run(clWarmup)
	}
	timing0 := timingOf(twin)
	traffic0 := trafficOf(twin)

	// A traced run takes at least one block on each cluster.
	start := time.Now()
	deadline := start.Add(env.measure)
	for i := 0; time.Now().Before(deadline) || (twin != nil && i < 2*clBlockOp); i++ {
		cur, traced := c, twin != nil && i/clBlockOp%2 == 0
		if traced {
			cur = twin
		}
		tr := env.tr.orNil(traced)
		root := tr.begin("op", -1, i)
		t := time.Now()
		s := tr.begin("dist.run", root, i)
		cur.Run(clStepsPerOp)
		tr.end(s)
		lat := msSince(t)
		tr.end(root)
		o.lat = append(o.lat, lat)
		o.attempted++
		if traced {
			on = append(on, lat)
		} else {
			off = append(off, lat)
		}
	}
	o.wall = time.Since(start).Seconds()

	for _, cl := range []*abft.Cluster[float64]{c, twin} {
		if cl == nil {
			continue
		}
		if d := cl.Stats().Detections; d != 0 {
			o.fail("%d detections in a fault-free run", d)
			o.failed += d - 1 // each detection is one failed op
		}
		if err := checkGather(cl, op, init, o); err != nil {
			return nil, err
		}
	}
	if twin == nil {
		return o, nil
	}

	m := o.layers
	steps := float64(len(on) * clStepsPerOp)
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / steps / clRanksX / clRanksY }
	tm := timingOf(twin)
	m.set("dist.step_ms", "ms", median(off)/clStepsPerOp)
	m.set("dist.interior_sweep_ms", "ms", perStep(tm.InteriorSweepNs-timing0.InteriorSweepNs))
	m.set("dist.boundary_sweep_ms", "ms", perStep(tm.BoundarySweepNs-timing0.BoundarySweepNs))
	m.set("dist.pack_ms", "ms", perStep(tm.PackNs-timing0.PackNs))
	m.set("dist.unpack_ms", "ms", perStep(tm.UnpackNs-timing0.UnpackNs))
	m.set("dist.send_ms", "ms", perStep(tm.SendNs-timing0.SendNs))
	m.set("dist.verify_ms", "ms", perStep(tm.VerifyNs-timing0.VerifyNs))
	m.set("dist.boundary_wait_ms", "ms", perStep(tm.BoundaryWaitNs-timing0.BoundaryWaitNs))
	m.set("dist.barrier_ms", "ms", perStep(tm.BarrierNs-timing0.BarrierNs))
	tr := trafficOf(twin)
	m.set("dist.msgs_per_step", "count", float64(tr.FramesSent-traffic0.FramesSent)/steps)
	m.set("dist.wire_bytes_per_step", "B", float64(tr.BytesSent-traffic0.BytesSent)/steps)
	m.set("trace.overhead_pct.cluster-tcp", "%", overheadPct(on, off))
	m.set("dist.allocs_per_step", "count", allocsPerStep(c))
	m.set("stencil.sweep2d_tile_ms", "ms", sweepTile(op, init))
	rt, err := wireRoundtrip()
	if err != nil {
		return nil, err
	}
	m.set("dist.wire_roundtrip_us", "us", rt)
	tax, err := tcpTax(c, op, init)
	if err != nil {
		return nil, err
	}
	m.set("dist.tcp_tax_pct", "%", tax)

	f, err := os.Create(filepath.Join(env.out, "cluster-tcp.telemetry.json"))
	if err != nil {
		return nil, err
	}
	if err := abft.WriteTrace(f, tel); err != nil {
		f.Close()
		return nil, err
	}
	return o, f.Close()
}

// checkGather compares the cluster's gathered domain bit for bit with an
// unprotected single-process run of the same length.
func checkGather(c *abft.Cluster[float64], op *abft.Op2D[float64], init *abft.Grid[float64], o *outcome) error {
	pool := &abft.Pool{Workers: 2}
	defer pool.Close()
	ref, err := abft.Build(abft.Spec[float64]{Op2D: op, Init: init, Pool: pool})
	if err != nil {
		return err
	}
	ref.Run(c.Iter())
	got, want := c.Gather().Data(), ref.Grid().Data()
	for i := range want {
		if got[i] != want[i] {
			o.fail("gather after %d steps differs from the single-process reference at point %d", c.Iter(), i)
			break
		}
	}
	return nil
}

func timingOf(c *abft.Cluster[float64]) (t stats.Timing) {
	if c != nil {
		t = c.Stats().Timing
	}
	return t
}

func trafficOf(c *abft.Cluster[float64]) (t stats.Transport) {
	if c != nil {
		m, _ := c.TransportMetrics()
		t = m.Totals()
	}
	return t
}

// allocsPerStep counts heap allocations per steady-state step.
func allocsPerStep(c *abft.Cluster[float64]) float64 {
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// wireRoundtrip times WriteWireFrame + ReadWireFrame of one halo strip of
// the 2x1 grid (a 512-row float64 column), in microseconds.
func wireRoundtrip() (float64, error) {
	payload := make([]byte, clN*8)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	const batch = 2000
	var us []float64
	for range 15 {
		t := time.Now()
		for i := range batch {
			buf.Reset()
			if err := dist.WriteWireFrame(&buf, dist.WireFrame{Kind: dist.FrameState, Gen: uint32(i), Elem: 8, Payload: payload}); err != nil {
				return 0, err
			}
			if _, err := dist.ReadWireFrame(&buf); err != nil {
				return 0, err
			}
		}
		us = append(us, msSince(t)*1e3/batch)
	}
	return median(us), nil
}

// sweepTile times the fused sweep of one rank's tile (256 columns x 512
// rows) on one thread.
func sweepTile(op *abft.Op2D[float64], init *abft.Grid[float64]) float64 {
	src := abft.New[float64](clN/clRanksX, clN/clRanksY)
	src.FillFunc(func(x, y int) float64 { return init.At(x, y) })
	dst := abft.New[float64](clN/clRanksX, clN/clRanksY)
	b := make([]float64, clN/clRanksY)
	var ms []float64
	for range 41 {
		t := time.Now()
		op.SweepFused(dst, src, b)
		ms = append(ms, msSince(t))
	}
	return median(ms)
}

// tcpTax is the tcp cluster's op time over the channel-transport
// cluster's on the same grid, in interleaved blocks, as a percentage.
func tcpTax(c *abft.Cluster[float64], op *abft.Op2D[float64], init *abft.Grid[float64]) (float64, error) {
	ch, err := buildCluster(clusterSpec(op, init, false, nil))
	if err != nil {
		return 0, err
	}
	defer ch.Close()
	ch.Run(clWarmup)
	var tTCP, tChan []float64
	for range 10 {
		for _, x := range []struct {
			c   *abft.Cluster[float64]
			out *[]float64
		}{{c, &tTCP}, {ch, &tChan}} {
			for range clBlockOp {
				t := time.Now()
				x.c.Run(clStepsPerOp)
				*x.out = append(*x.out, msSince(t))
			}
		}
	}
	if d := ch.Stats().Detections; d != 0 {
		return 0, fmt.Errorf("channel cluster: %d false detections", d)
	}
	return 100 * (median(tTCP)/median(tChan) - 1), nil
}
