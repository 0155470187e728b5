package serve_test

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	abft "stencilabft"
	"stencilabft/internal/serve"
)

// TestMain lets this test binary double as a pool worker: re-exec'd with
// STENCILSERVE_WORKER=1 it speaks the worker protocol on stdin/stdout
// instead of running tests — the same shape cmd/stencilserve uses with its
// -worker flag, but without needing a separate binary on disk.
func TestMain(m *testing.M) {
	if os.Getenv("STENCILSERVE_WORKER") == "1" {
		if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// processStart returns a StartWorker forking this test binary into worker
// mode.
func processStart(t *testing.T) serve.StartWorker {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return serve.ProcessWorkers(exe, []string{"STENCILSERVE_WORKER=1"})
}

// TestProcessWorkerEndToEnd runs a job through real child processes and
// requires bit-identity with the in-process reference — the wire protocol
// and the fork/exec path change nothing about the numbers.
func TestProcessWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{Workers: 2, Start: processStart(t)})
	const iters = 5

	spec := onlineSpec(55)
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	ref.Finalize()

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	grid, gotStats, _ := fetchResult(t, ts, id)
	for i, v := range ref.Grid().Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("process-worker result diverges at %d: %v != %v", i, grid.Data[i], v)
		}
	}
	if got, want := normalize(gotStats), normalize(ref.Stats()); got != want {
		t.Fatalf("process-worker stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestProcessWorkerGang fans a 2-rank cluster out over two child
// processes — the full stencilserve deployment shape: real processes, real
// sockets — and checks bit-identity against the in-process cluster.
func TestProcessWorkerGang(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{Workers: 2, Start: processStart(t)})
	const iters = 4

	spec := onlineSpec(70)
	spec.Deployment = abft.Clustered
	spec.Ranks = 2
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("gang job %s: %s", st.State, st.Error)
	}
	grid, _, _ := fetchResult(t, ts, id)
	for i, v := range ref.Grid().Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("process gang diverges at %d: %v != %v", i, grid.Data[i], v)
		}
	}
}

// TestWorkerRespawnAfterTimeout: a job overrunning its deadline gets its
// worker killed (failing the job 500), and the respawned worker serves the
// next job normally — one runaway never wedges a slot.
func TestWorkerRespawnAfterTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{
		Workers:    1,
		Start:      processStart(t),
		JobTimeout: 200 * time.Millisecond,
	})

	// A run far longer than the deadline.
	runaway := onlineSpec(10)
	id, code, _, _ := submitSpec(t, ts, "alice", runaway, 500_000)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	st := waitTerminal(t, ts, id)
	if st.State != serve.StateFailed || st.Status != 500 {
		t.Fatalf("runaway job settled %s/%d, want failed/500 (%s)", st.State, st.Status, st.Error)
	}

	// The slot respawned: the next job completes.
	ok := onlineSpec(20)
	id, code, _, _ = submitSpec(t, ts, "alice", ok, 3)
	if code != http.StatusAccepted {
		t.Fatalf("POST after respawn: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("job after respawn settled %s: %s", st.State, st.Error)
	}
}

// failWriter is a host pipe that has gone away: every write fails.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("host pipe closed") }

// TestWorkerClosesClusterOnEmitFailure: when the host stops reading
// mid-job (the first stats event cannot be written), the worker gives up
// on the job and still releases the cluster's rank goroutines.
func TestWorkerClosesClusterOnEmitFailure(t *testing.T) {
	req := `{"id":"j1","iters":4,"statsEvery":1,"spec":{"scheme":"online","deployment":"cluster","ranks":2,` +
		`"stencil":{"name":"laplace5"},"bc":"clamp","grid":{"nx":16,"ny":12,"generator":"uniform","seed":1}}}` + "\n"
	baseline := runtime.NumGoroutine()
	if err := serve.WorkerMain(strings.NewReader(req), failWriter{}); err == nil {
		t.Fatal("worker reported success through a failed emit")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed job, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
