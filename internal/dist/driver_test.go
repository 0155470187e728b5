package dist

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// waitGoroutines polls until the process is back to at most baseline
// goroutines; rank goroutines exit asynchronously after Close.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// runCloser is the lifecycle surface both cluster kinds share.
type runCloser interface {
	Run(count int)
	Close() error
}

// TestClusterCloseReleasesGoroutines: both cluster kinds own one
// persistent goroutine per rank, and Close returns the process to its
// goroutine baseline.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (runCloser, error)
	}{
		{"2d", func() (runCloser, error) {
			op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
			return NewClusterGrid(op, testInit(24, 24), 2, 2, strictOpts())
		}},
		{"3d", func() (runCloser, error) {
			op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
			return NewCluster3D(op, testInit3D(10, 8, 9), 3, strictOpts())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if n := runtime.NumGoroutine(); n <= baseline {
				t.Fatalf("%d goroutines after construction, baseline %d: ranks are not persistent", n, baseline)
			}
			c.Run(3)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// panicRecvTransport makes one rank's receive fail the way a dead peer
// does: the victim's at-th Recv panics with err instead of returning.
type panicRecvTransport struct {
	Transport[float64]
	victim int
	at     int64
	n      atomic.Int64
	err    error
}

func (t *panicRecvTransport) Recv(to int, d Dir) []float64 {
	if to == t.victim && t.n.Add(1) == t.at {
		panic(t.err)
	}
	return t.Transport.Recv(to, d)
}

// Abort forwards to the wrapped backend, so the driver can wake the
// sibling ranks blocked in it.
func (t *panicRecvTransport) Abort(cause error) { t.Transport.(Aborter).Abort(cause) }

// TestCluster3DRunRecoverTransportPanic: a transport fault inside one slab
// rank comes back from RunRecover as an error once every sibling rank has
// unwound, the iteration counter does not advance, and Close still
// releases every rank goroutine.
func TestCluster3DRunRecoverTransportPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cause := errors.New("simulated peer death")
	opt := strictOpts()
	opt.WrapTransport = func(tr Transport[float64], rx, ry int, ring bool) Transport[float64] {
		// The middle slab receives twice per iteration: fail in iteration 2.
		return &panicRecvTransport{Transport: tr, victim: 1, at: 5, err: cause}
	}
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	c, err := NewCluster3D(op, testInit3D(10, 8, 9), 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRecover(6); !errors.Is(err, cause) {
		t.Fatalf("RunRecover = %v, want the transport fault", err)
	}
	if c.Iter() != 0 {
		t.Fatalf("iteration counter advanced to %d through a faulted run", c.Iter())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestCluster3DAfterStep: the AfterStep seam fires exactly once per rank
// per iteration on the layer cluster, with absolute iteration numbers
// across Run and Step calls.
func TestCluster3DAfterStep(t *testing.T) {
	const ranks, iters = 3, 5
	var mu sync.Mutex
	calls := make(map[[2]int]int)
	opt := strictOpts()
	opt.AfterStep = func(rank, iter int) {
		mu.Lock()
		calls[[2]int{rank, iter}]++
		mu.Unlock()
	}
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Periodic}
	c := newCluster3D(t, op, testInit3D(10, 8, 9), ranks, opt)
	c.Run(iters - 1)
	c.Step()

	if len(calls) != ranks*iters {
		t.Fatalf("AfterStep fired for %d (rank, iter) pairs, want %d", len(calls), ranks*iters)
	}
	for r := 0; r < ranks; r++ {
		for it := 0; it < iters; it++ {
			if n := calls[[2]int{r, it}]; n != 1 {
				t.Fatalf("AfterStep(rank %d, iter %d) fired %d times, want 1", r, it, n)
			}
		}
	}
}
