package dist

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// rank3d is one simulated rank of the 3-D layer-decomposed cluster: a slab
// of full nx-by-ny z-layers [z0, z1) of the global domain, stored in a
// ghost-layer-padded local double buffer (h halo layers below and above in
// z), protected by the paper's per-layer online ABFT scheme with slab-aware
// cross-layer checksum coupling. Structurally this is the 1-D row-band rank
// lifted one dimension — the same extended-frame bookkeeping with layers in
// place of rows — which is exactly the reuse the topology-neutral
// decomposition buys. All of a rank's state is touched only by its own
// goroutine; neighbour layers arrive as copies through channels.
type rank3d[T num.Float] struct {
	rankBase
	z0, z1 int // global layers owned, [z0, z1)
	nx, ny int
	nzLoc  int // z1 - z0
	h      int // halo depth = stencil z-radius

	// op sweeps the extended local grid: x and y resolve with the global
	// boundary condition (every slab spans the full layer), z never
	// reaches a boundary (halo layers supply the data). Its C field, when
	// present, is the slab's layers of the global constant field padded to
	// the extended depth.
	op  *stencil.Op3D[T]
	buf *grid.Buffer3D[T] // extended grids: nx by ny by (nzLoc + 2h)

	ip   *checksum.Interp3D[T] // built for the slab's nx-by-ny-by-nzLoc shape
	det  checksum.Detector[T]
	pol  checksum.PairPolicy
	pool *stencil.Pool

	// Per-layer column-checksum state in the extended frame: entries
	// [0, h) and [h+nzLoc, nzLoc+2h) are halo-layer sums refreshed every
	// iteration, entries [h, h+nzLoc) are the slab's verified/fused
	// checksums.
	prevExtB [][]T
	newExtB  [][]T
	interpB  [][]T // slab-only, len nzLoc

	// Row-checksum scratch for the detection slow path: prevExtA covers
	// every extended layer (the cross-layer coupling of a flagged layer
	// reads its z-neighbours, halo layers included); newA/interpA are
	// reused per flagged layer.
	prevExtA      [][]T
	newA, interpA []T

	flagged []bool // per-slab-layer mismatch scratch, reused every step

	// edgesRead/edgesWrite are per-extended-layer live views of the two
	// buffer halves, boxed once and swapped alongside the buffer;
	// edgesRead always views buf.Read.
	edgesRead, edgesWrite []checksum.EdgeSource[T]

	tr       Transport[T]
	globalBC grid.Boundary
	globalNz int

	corr checksum.Corrector[T]
}

// newRank3D builds rank id over global layers [z0, z1), copying the slab
// and its initial halo layers out of init.
func newRank3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], id, z0, z1, h int, opt Options[T]) (*rank3d[T], error) {
	nx, ny := init.Nx(), init.Ny()
	nzLoc := z1 - z0

	// The interpolator is built on the slab's shape with the slab's layers
	// of the constant field; z-halos are supplied at interpolation time.
	iop := &stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	if op.C != nil {
		cSlab := grid.New3D[T](nx, ny, nzLoc)
		for z := 0; z < nzLoc; z++ {
			cSlab.Layer(z).CopyFrom(op.C.Layer(z0 + z))
		}
		iop.C = cSlab
	}
	ip, err := checksum.NewInterp3D(iop, nx, ny, nzLoc)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms

	extNz := nzLoc + 2*h
	sop := &stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	if op.C != nil {
		cExt := grid.New3D[T](nx, ny, extNz)
		for z := 0; z < nzLoc; z++ {
			cExt.Layer(h + z).CopyFrom(op.C.Layer(z0 + z))
		}
		sop.C = cExt
	}

	r := &rank3d[T]{
		rankBase: rankBase{id: id}, z0: z0, z1: z1, nx: nx, ny: ny, nzLoc: nzLoc, h: h,
		op:         sop,
		buf:        grid.NewBuffer3D[T](nx, ny, extNz),
		ip:         ip,
		det:        opt.Detector,
		pol:        opt.PairPolicy,
		pool:       opt.Pool,
		prevExtB:   makeVecs[T](extNz, ny),
		newExtB:    makeVecs[T](extNz, ny),
		interpB:    makeVecs[T](nzLoc, ny),
		prevExtA:   makeVecs[T](extNz, nx),
		newA:       make([]T, nx),
		interpA:    make([]T, nx),
		flagged:    make([]bool, nzLoc),
		edgesRead:  make([]checksum.EdgeSource[T], extNz),
		edgesWrite: make([]checksum.EdgeSource[T], extNz),
		globalBC:   op.BC,
		globalNz:   init.Nz(),
	}
	for zz := 0; zz < extNz; zz++ {
		r.edgesRead[zz] = checksum.LiveEdges(r.buf.Read.Layer(zz), op.BC, op.BCValue)
		r.edgesWrite[zz] = checksum.LiveEdges(r.buf.Write.Layer(zz), op.BC, op.BCValue)
	}
	for z := 0; z < nzLoc; z++ {
		r.buf.Read.Layer(h + z).CopyFrom(init.Layer(z0 + z))
		// The initial slab data and checksums are assumed correct
		// (Theorem 2).
		stencil.ChecksumB(r.buf.Read.Layer(h+z), r.prevExtB[h+z])
	}
	return r, nil
}

func makeVecs[T num.Float](n, length int) [][]T {
	out := make([][]T, n)
	for i := range out {
		out[i] = make([]T, length)
	}
	return out
}

// slabLo/slabHi bound the slab's layers in the extended grid.
func (r *rank3d[T]) slabLo() int { return r.h }
func (r *rank3d[T]) slabHi() int { return r.h + r.nzLoc }

// advance runs one iteration of the slab schedule: the blocking halo
// exchange, then the protected step. The z chain exchanges every
// iteration, so the absolute iteration number is not needed.
func (r *rank3d[T]) advance(_ int, hook stencil.InjectFunc[T]) {
	r.exchangeHalos()
	r.step(hook)
}

// exchangeHalos refreshes the read buffer's halo layers with iteration-t
// data: boundary layers are posted to both z-neighbours first, then the
// inbound layers are copied into the local ghost layers. Layers are
// contiguous in storage, so no packing is needed — the z chain is the 1-D
// band exchange verbatim. Edges without a neighbour (the bottom and top
// slabs under non-periodic boundaries) synthesise their ghost layers from
// the global boundary condition instead.
func (r *rank3d[T]) exchangeHalos() {
	if r.h == 0 {
		return
	}
	plane := r.nx * r.ny
	data := r.buf.Read.Data()
	hasUp, hasDn := r.tr.Neighbor(r.id, Up), r.tr.Neighbor(r.id, Down)
	if hasUp {
		t0 := r.tel.Begin()
		r.tr.Send(r.id, Up, data[r.slabLo()*plane:(r.slabLo()+r.h)*plane]) // own bottom h slab layers
		r.tel.End(telemetry.PhaseSend, t0)
		r.stats.HaloByDir[Up]++
	}
	if hasDn {
		t0 := r.tel.Begin()
		r.tr.Send(r.id, Down, data[(r.slabHi()-r.h)*plane:r.slabHi()*plane]) // own top h slab layers
		r.tel.End(telemetry.PhaseSend, t0)
		r.stats.HaloByDir[Down]++
	}
	if hasUp {
		t0 := r.tel.Begin()
		in := r.tr.Recv(r.id, Up)
		t1 := r.tel.Begin()
		r.tel.End(telemetry.PhaseRecvWait, t0)
		copy(data[0:r.h*plane], in)
		r.tel.End(telemetry.PhaseUnpack, t1)
	} else {
		t0 := r.tel.Begin()
		r.fillEdgeHalo(true)
		r.tel.End(telemetry.PhaseUnpack, t0)
	}
	if hasDn {
		t0 := r.tel.Begin()
		in := r.tr.Recv(r.id, Down)
		t1 := r.tel.Begin()
		r.tel.End(telemetry.PhaseRecvWait, t0)
		copy(data[r.slabHi()*plane:(r.slabHi()+r.h)*plane], in)
		r.tel.End(telemetry.PhaseUnpack, t1)
	} else {
		t0 := r.tel.Begin()
		r.fillEdgeHalo(false)
		r.tel.End(telemetry.PhaseUnpack, t0)
	}
	r.stats.HaloExchanges++
}

// fillEdgeHalo synthesises the ghost layers beyond the global domain's z
// edge by applying the global boundary condition layer-wise. Clamp and
// Mirror resolve to layers this rank owns (a slab is strictly thicker than
// the radius); Constant and Zero substitute the fixed ghost value.
func (r *rank3d[T]) fillEdgeHalo(low bool) {
	ext := r.buf.Read
	for j := 0; j < r.h; j++ {
		var gz, layer int // global ghost layer and its extended-frame index
		if low {
			gz = r.z0 - r.h + j
			layer = j
		} else {
			gz = r.z1 + j
			layer = r.slabHi() + j
		}
		dst := ext.Layer(layer)
		rz, ok := r.globalBC.ResolveIndex(gz, r.globalNz)
		if !ok {
			v := T(0)
			if r.globalBC == grid.Constant {
				v = r.op.BCValue
			}
			dst.Fill(v)
			continue
		}
		dst.CopyFrom(ext.Layer(r.slabLo() + rz - r.z0))
	}
}

// step advances the rank one iteration: fused per-layer sweep over the
// slab, slab-aware per-layer checksum interpolation, detection, and local
// correction. The halo layers of the read buffer must already hold
// iteration-t neighbour data (exchangeHalos runs first).
func (r *rank3d[T]) step(hook stencil.InjectFunc[T]) {
	src, dst := r.buf.Read, r.buf.Write

	// Halo checksums of iteration t: plain per-layer column sums of the
	// received halo layers — no checksum is ever communicated.
	t0 := r.tel.Begin()
	for j := 0; j < r.h; j++ {
		stencil.ChecksumB(src.Layer(j), r.prevExtB[j])
		stencil.ChecksumB(src.Layer(r.slabHi()+j), r.prevExtB[r.slabHi()+j])
	}
	r.tel.End(telemetry.PhaseVerify, t0)

	t0 = r.tel.Begin()
	sweep := func(z int) {
		r.op.SweepLayer(dst, src, r.slabLo()+z, r.newExtB[r.slabLo()+z], hook)
	}
	if r.pool != nil {
		r.pool.ForEach(r.nzLoc, sweep)
	} else {
		for z := 0; z < r.nzLoc; z++ {
			sweep(z)
		}
	}
	r.tel.End(telemetry.PhaseSweep, t0)

	// Interpolate and detect per slab layer; corrections run after the
	// parallel phase, mutating only the flagged layer.
	t0 = r.tel.Begin()
	flagged := r.flagged
	for z := range flagged {
		flagged[z] = false
	}
	detect := func(z int) {
		r.ip.InterpolateBSlab(z, r.prevExtB, r.h, r.edgesRead, r.interpB[z])
		if r.det.AnyMismatch(r.newExtB[r.slabLo()+z], r.interpB[z]) {
			flagged[z] = true
		}
	}
	if r.pool != nil {
		r.pool.ForEach(r.nzLoc, detect)
	} else {
		for z := 0; z < r.nzLoc; z++ {
			detect(z)
		}
	}
	r.stats.Verifications++

	anyFlagged := false
	for z := 0; z < r.nzLoc; z++ {
		if flagged[z] {
			anyFlagged = true
			break
		}
	}
	r.tel.End(telemetry.PhaseVerify, t0)
	if anyFlagged {
		r.stats.Detections++
		t0 = r.tel.Begin()
		// The row-checksum interpolation of a flagged layer reads prevA of
		// its z-neighbours, halo layers included; compute them all once
		// (the slow path is rare, the cost of one sweep).
		for zz := 0; zz < r.nzLoc+2*r.h; zz++ {
			stencil.ChecksumA(src.Layer(zz), r.prevExtA[zz])
		}
		for z := 0; z < r.nzLoc; z++ {
			if flagged[z] {
				r.correctLayer(z, dst)
			}
		}
		r.tel.End(telemetry.PhaseRepair, t0)
	}

	r.prevExtB, r.newExtB = r.newExtB, r.prevExtB
	r.buf.Swap()
	r.edgesRead, r.edgesWrite = r.edgesWrite, r.edgesRead
	r.stats.Iterations++
}

// correctLayer locates and repairs the corrupted points of one flagged slab
// layer using the 2-D correction algebra on that layer's checksum pairs —
// entirely rank-local.
func (r *rank3d[T]) correctLayer(z int, dst *grid.Grid3D[T]) {
	layer := dst.Layer(r.slabLo() + z)
	r.ip.InterpolateASlab(z, r.prevExtA, r.h, r.edgesRead, r.interpA)
	stencil.ChecksumA(layer, r.newA)

	newB := r.newExtB[r.slabLo()+z]
	bm := r.det.Compare(newB, r.interpB[z])
	am := r.det.Compare(r.newA, r.interpA)
	if len(am) == 0 || len(bm) == 0 {
		// Mismatch in one vector only: the corruption sits in a checksum,
		// not the layer. The layer is trusted; refresh the column checksums.
		r.stats.ChecksumRepairs++
		stencil.ChecksumB(layer, newB)
		return
	}
	direct := &checksum.Vectors[T]{A: r.newA, B: newB}
	locs := r.corr.CorrectAll(layer, am, bm, r.pol, direct, r.interpA, r.interpB[z])
	r.stats.CorrectedPoints += len(locs)
}
