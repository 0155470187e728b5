package dist

import (
	"fmt"
	"io"
	"sync"

	"stencilabft/internal/fault"
	"stencilabft/internal/num"
	"stencilabft/internal/stats"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// rankBase is the bookkeeping every rank engine shares with the driver:
// its global id, its ABFT counters and its phase recorder.
type rankBase struct {
	id    int
	stats Stats
	// tel times the rank's phases; nil (telemetry disabled) makes every
	// Begin/End a nil-check no-op, keeping the step allocation-free and
	// clock-free.
	tel *telemetry.Recorder
}

func (b *rankBase) base() *rankBase { return b }

// engine is what the driver needs of one rank: advance runs one full
// iteration of the rank's own schedule (halo exchange, protected sweep,
// verification, repair) at absolute iteration abs. The 2-D tile rank
// implements it with the overlap/depth-k schedule, the 3-D slab rank with
// its blocking exchange followed by its step.
type engine[T num.Float] interface {
	advance(abs int, hook stencil.InjectFunc[T])
	base() *rankBase
}

// driver advances a cluster's materialised ranks in lockstep; the 2-D tile
// cluster and the 3-D slab cluster both embed it, so everything about
// running a cluster — persistent rank goroutines, fault capture, the
// barrier cadence, AfterStep, Close and the counters — is one code path for
// both dimensionalities.
//
// Each rank runs on one persistent goroutine, spawned at construction and
// fed batches through its command channel — Run then costs a channel send
// and a join per rank instead of a goroutine spawn, keeping the
// steady-state iteration path allocation-free. Close shuts them down.
type driver[T num.Float, R engine[T]] struct {
	ranks     []R
	tr        Transport[T]
	afterStep func(rank, iter int)
	depth     int // halo depth k: one exchange round and barrier every k iterations
	iter      int

	cmds       []chan rankCmd
	done       chan struct{}
	faultMu    sync.Mutex
	firstFault error
	closeOnce  sync.Once
}

// rankCmd is one Run batch handed to a rank goroutine: iters iterations
// starting at absolute iteration base.
type rankCmd struct{ iters, base int }

// start spawns the rank goroutines once the ranks and transport are built.
// plans aligns with d.ranks and holds each rank's routed Options.Inject (nil
// where nothing is scheduled).
func (d *driver[T, R]) start(plans []*fault.Injector[T], afterStep func(rank, iter int), depth int) {
	d.afterStep, d.depth = afterStep, depth
	d.cmds = make([]chan rankCmd, len(d.ranks))
	d.done = make(chan struct{}, len(d.ranks))
	for i, r := range d.ranks {
		d.cmds[i] = make(chan rankCmd, 1)
		go d.rankLoop(r, plans[i], d.cmds[i])
	}
}

// Iter returns the number of completed cluster iterations.
func (d *driver[T, R]) Iter() int { return d.iter }

// SetIter rebases the cluster's absolute iteration counter — the rollback
// half of a checkpoint restore. Injection plans and telemetry keep working
// across a rebase because both are keyed on absolute iterations.
func (d *driver[T, R]) SetIter(n int) { d.iter = n }

// RankStats returns the materialised ranks' counters — aligned with
// LocalRanks on a 2-D cluster, indexed by rank id on a default or 3-D one.
// When telemetry is enabled each entry carries that rank's phase-time
// breakdown.
func (d *driver[T, R]) RankStats() []Stats {
	out := make([]Stats, len(d.ranks))
	m, haveM := d.TransportMetrics()
	for i, r := range d.ranks {
		b := r.base()
		out[i] = b.stats
		out[i].Timing = b.tel.Timing()
		if haveM {
			out[i].Transport = m.PerRank(b.id)
		}
	}
	// The transport-global counters have no owning rank; park them on the
	// first entry so merging RankStats reproduces the cluster totals.
	if haveM && len(out) > 0 {
		out[0].Transport.DialRetries += m.DialRetries
		out[0].Transport.PoisonEvents += m.Poisoned
		out[0].Transport.Reconnects += m.Reconnects
		out[0].Transport.Resends += m.Resends
		out[0].Transport.CrcErrors += m.CrcErrors
		out[0].Transport.DupFrames += m.DupFrames
	}
	return out
}

// Stats returns the cluster-wide merge of the per-rank counters, with
// Iterations normalised to lockstep sweeps (Iter) so the count stays
// comparable across deployments: like the local and blocked protectors, a
// cluster reports one iteration per global sweep. Event counters
// (Verifications, Detections, HaloExchanges, the per-direction HaloByDir, …)
// remain per-rank sums, just as the blocked protector counts one
// verification per block.
func (d *driver[T, R]) Stats() Stats {
	total := stats.MergeAll(d.RankStats())
	total.Iterations = d.iter
	return total
}

// MetricsSource is implemented by transports that count their traffic.
// Both built-in backends do; a custom Options.NewTransport backend may
// not, in which case the cluster's Stats simply carry a zero Transport.
type MetricsSource interface {
	Metrics() telemetry.TransportMetrics
}

// TransportMetrics returns the transport's per-edge traffic snapshot, or
// ok == false when the backend does not implement MetricsSource.
func (d *driver[T, R]) TransportMetrics() (telemetry.TransportMetrics, bool) {
	m, ok := d.tr.(MetricsSource)
	if !ok {
		return telemetry.TransportMetrics{}, false
	}
	return m.Metrics(), true
}

// Finalize is a no-op: every rank verifies every sweep, so nothing is
// pending at the end of a run.
func (d *driver[T, R]) Finalize() {}

// Close stops the persistent rank goroutines and tears down the cluster's
// transport if the backend holds resources (the TCP backend's sockets and
// goroutines; the in-process channel backend has nothing to release).
// Call it after the final Run/Gather, never concurrently with one.
func (d *driver[T, R]) Close() error {
	d.closeOnce.Do(func() {
		for _, ch := range d.cmds {
			close(ch)
		}
	})
	if closer, ok := d.tr.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// Step advances the cluster by one lockstep iteration, applying the
// injection plan configured in Options. Each call dispatches to and joins
// the persistent rank goroutines, so batch iterations through Run(count)
// whenever the iteration count is known up front.
func (d *driver[T, R]) Step() { d.Run(1) }

// Run advances the cluster by count lockstep iterations, applying the
// injection plan configured in Options (injections match on the absolute
// iteration number, Iter-based). A transport fault is fatal, matching the
// TCP backend's MPI_ERRORS_ARE_FATAL semantics; use RunRecover to survive
// one.
func (d *driver[T, R]) Run(count int) {
	if err := d.RunRecover(count); err != nil {
		panic(err)
	}
}

// RunRecover is the fault-tolerant Run: a transport fault (typically a
// *Fault from a dead peer process) is returned instead of panicking, after
// every hosted rank has unwound. On fault the cluster's iteration counter
// is NOT advanced — the hosted tiles are mid-iteration garbage and the
// caller (the resilience layer) is expected to restore a checkpoint with
// RestoreState/SetIter, or rebuild the cluster, before running again.
//
// Each rank goroutine gets one command and is joined. A rank that panics
// with an error (the transport fault path) aborts the transport so its
// sibling ranks unwind from their own blocked Recv/Barrier calls, and the
// first such fault is returned once every rank has stopped; the rank
// goroutines survive an error fault and accept further commands.
// Non-error panics (programming bugs) abort the siblings too, then
// re-panic, killing the process.
func (d *driver[T, R]) RunRecover(count int) error {
	if count <= 0 {
		return nil
	}
	d.faultMu.Lock()
	d.firstFault = nil
	d.faultMu.Unlock()
	for _, ch := range d.cmds {
		ch <- rankCmd{iters: count, base: d.iter}
	}
	for range d.ranks {
		<-d.done
	}
	d.faultMu.Lock()
	err := d.firstFault
	d.faultMu.Unlock()
	if err == nil {
		d.iter += count
	}
	return err
}

// rankLoop is a rank's persistent goroutine: it executes Run batches from
// its command channel until Close closes it.
func (d *driver[T, R]) rankLoop(r R, plan *fault.Injector[T], cmds <-chan rankCmd) {
	for cmd := range cmds {
		d.runBatch(r, plan, cmd)
	}
}

// runBatch executes one Run batch on the rank's goroutine. The cluster-wide
// barrier separates exchange rounds only — at halo depth k that is one
// barrier every k iterations, since the intervening local iterations touch
// no shared state. The barrier placed at the END of an exchange iteration
// is also what fences the in-process transport's zero-copy payloads: a
// receiver has copied them before its barrier, so the sender may overwrite
// the underlying storage on its next sweep.
func (d *driver[T, R]) runBatch(r R, plan *fault.Injector[T], cmd rankCmd) {
	b := r.base()
	defer func() {
		p := recover()
		if p != nil {
			err, ok := p.(error)
			if ok {
				d.faultMu.Lock()
				if d.firstFault == nil {
					d.firstFault = err
				}
				d.faultMu.Unlock()
				p = nil
			} else {
				err = fmt.Errorf("dist: rank %d panic: %v", b.id, p)
			}
			d.abortTransport(err)
		}
		d.done <- struct{}{}
		if p != nil {
			panic(p)
		}
	}()
	for t := 0; t < cmd.iters; t++ {
		abs := cmd.base + t
		b.tel.SetIter(abs)
		r.advance(abs, stencil.HookAt[T](injSource(plan), abs))
		if d.afterStep != nil {
			d.afterStep(b.id, abs)
		}
		if d.depth == 1 || abs%d.depth == 0 {
			tb := b.tel.Begin()
			d.tr.Barrier()
			b.tel.End(telemetry.PhaseBarrierWait, tb)
		}
	}
}

// abortTransport wakes every rank blocked in the transport with cause, when
// the backend supports it. Both built-in backends do; a custom backend
// without Abort leaves sibling ranks to fail on their own timeouts.
func (d *driver[T, R]) abortTransport(cause error) {
	if a, ok := d.tr.(Aborter); ok {
		a.Abort(cause)
	}
}

// injSource widens a possibly-nil concrete injector into the InjectSource
// seam without producing a non-nil interface around a nil pointer.
func injSource[T num.Float](inj *fault.Injector[T]) stencil.InjectSource[T] {
	if inj == nil {
		return nil
	}
	return inj
}
