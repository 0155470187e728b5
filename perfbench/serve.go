package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abft "stencilabft"
	"stencilabft/internal/serve"
)

// serveKind is one of the two stencilserve workloads. Both drive the
// service over real HTTP on loopback with two re-exec'd worker processes,
// from a closed loop of two clients; each op is one online laplace5
// float32 job whose result is fetched.
type serveKind struct {
	name   string
	nx, ny int
	iters  int
	// upload: each op first uploads a distinct seeded grid (POST
	// /v1/grids) and references it; otherwise the spec names a seeded
	// generator.
	upload bool
	// setupReps is how often a run starts a server, enough for a steady
	// median of the set-up time.
	setupReps int
	// layers lists the per-layer metrics this workload reports.
	layers []string
}

var (
	serveGrid = serveKind{name: "serve-grid", nx: 256, ny: 256, iters: 8, upload: true, setupReps: 7, layers: []string{
		"serve.upload_ms", "serve.run_ms", "serve.result_ms", "serve.direct_ms", "serve.overhead_x",
		"serve.request_kb", "serve.result_kb", "serve.retained_kb_per_job",
		"wirespec.parse_ms", "wirespec.marshal_ms",
	}}
	serveSmall = serveKind{name: "serve-small", nx: 32, ny: 24, iters: 4, setupReps: 31, layers: []string{
		"serve.submit_ms", "serve.queue_ms", "serve.allocs_per_job",
	}}
)

const serveClients = 2

// server is one running stencilserve: scheduler, worker processes and an
// HTTP listener on loopback.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	// settledOnSubmit counts fresh (not cached) jobs that POST /v1/jobs
	// answered with 200 and state done, because the job finished before
	// the handler read its status; the documented answer is 202.
	settledOnSubmit atomic.Int64
}

func startServer() (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: 2, Start: serve.ProcessWorkers(exe, nil, workerFlag)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close() // kills and reaps the worker processes
}

// job is one op's seed and what came back. It keeps no grid, so the
// benchmark's own heap stays out of the server's retained-memory figure.
type job struct {
	seed     int64
	reqBytes int
	resBytes int
	hash     uint64
}

// gridData is the op's seeded initial grid: float32 values carried as
// float64, so they survive JSON exactly.
func gridData(k serveKind, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, k.nx*k.ny)
	for i := range d {
		d[i] = float64(float32(100 + 50*rng.Float64()))
	}
	return d
}

// specDoc renders the job spec with the given grid source.
func specDoc(grid any) []byte {
	doc, _ := json.Marshal(map[string]any{
		"stencil": map[string]any{"name": "laplace5"}, "bc": "clamp", "scheme": "online", "grid": grid,
	})
	return doc
}

func generatorRef(k serveKind, seed int64) any {
	return map[string]any{"nx": k.nx, "ny": k.ny, "generator": "uniform", "seed": seed}
}

// directDoc is the op's spec document with the grid inline (serve-grid)
// or named by its generator (serve-small): what the in-process check runs.
func directDoc(k serveKind, seed int64) []byte {
	if k.upload {
		return specDoc(abft.WireGrid{Nx: k.nx, Ny: k.ny, Data: gridData(k, seed)})
	}
	return specDoc(generatorRef(k, seed))
}

// run executes one op: upload (serve-grid), submit, wait for the done
// event, fetch the result. Spans are recorded under root.
func (s *server) run(k serveKind, j *job, tr *tracer, opID int) error {
	root := tr.begin("op", -1, opID)
	defer tr.end(root)
	var gridRef any
	if k.upload {
		body, _ := json.Marshal(abft.WireGrid{Nx: k.nx, Ny: k.ny, Data: gridData(k, j.seed)})
		sp := tr.begin("serve.upload", root, opID)
		var up struct {
			ID string `json:"id"`
		}
		_, err := s.post("/v1/grids", body, &up)
		tr.end(sp)
		if err != nil {
			return err
		}
		j.reqBytes += len(body)
		gridRef = map[string]any{"nx": k.nx, "ny": k.ny, "upload": up.ID}
	} else {
		gridRef = generatorRef(k, j.seed)
	}
	body := []byte(fmt.Sprintf(`{"spec":%s,"iters":%d}`, specDoc(gridRef), k.iters))
	j.reqBytes += len(body)

	submitted := time.Now()
	sp := tr.begin("serve.submit", root, opID)
	var st struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	status, err := s.post("/v1/jobs", body, &st)
	tr.end(sp)
	if err != nil {
		return err
	}
	if st.Cached {
		return fmt.Errorf("job %s answered from cache; every op's spec should be new", st.ID)
	}
	if status == http.StatusOK {
		s.settledOnSubmit.Add(1)
	}

	sp = tr.begin("serve.events", root, opID)
	running, done, err := s.waitDone(st.ID)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.add("serve.queue", root, opID, submitted, running)
	tr.add("serve.run", root, opID, running, done)

	sp = tr.begin("serve.result", root, opID)
	defer tr.end(sp)
	resp, err := s.client.Get(s.url + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET result: status %d: %.200s", resp.StatusCode, raw)
	}
	var res struct {
		Grid *serve.GridPayload `json:"grid"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("GET result: %w", err)
	}
	if res.Grid == nil || len(res.Grid.Data) != k.nx*k.ny {
		return fmt.Errorf("GET result: no %dx%d grid", k.nx, k.ny)
	}
	j.resBytes = len(raw)
	j.hash = hashGrid(res.Grid.Data)
	return nil
}

// post sends a JSON body and decodes a 2xx answer into out.
func (s *server) post(path string, body []byte, out any) (status int, err error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// waitDone follows the job's SSE stream to its terminal event and returns
// when the running and done events arrived.
func (s *server) waitDone(id string) (running, done time.Time, err error) {
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return running, done, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch {
		case event == "state" && strings.Contains(data, `"state":"running"`):
			running = time.Now()
		case event == "done":
			done = time.Now()
			if running.IsZero() {
				running = done
			}
			return running, done, nil
		case event == "error":
			return running, done, fmt.Errorf("job %s failed: %s", id, data)
		}
	}
	if err := sc.Err(); err != nil {
		return running, done, err
	}
	return running, done, errors.New("event stream ended without a terminal event")
}

func hashGrid(d []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range d {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func runServe(env *runEnv, k serveKind) (*outcome, error) {
	o := &outcome{layers: metricSet{}}
	var seq atomic.Int64
	nextJob := func() *job { return &job{seed: env.seed<<24 + seq.Add(1)} }

	// Set-up: server start and worker-process spawn until the first job
	// completes. Every repetition but the last is closed again.
	var s *server
	var jobs []*job
	for i := range k.setupReps {
		start := time.Now()
		var err error
		if s, err = startServer(); err != nil {
			return nil, err
		}
		j := nextJob()
		if err := s.run(k, j, nil, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("first job: %w", err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		jobs = append(jobs, j)
		if i < k.setupReps-1 {
			s.close()
		}
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	// Closed loop: each client submits its next job once the previous
	// one's result is read. Traced runs alternate ops with spans on and
	// off; each client runs at least one op, so both sides have samples.
	var (
		mu      sync.Mutex
		on, off []float64
		ops     atomic.Int64
		wg      sync.WaitGroup
	)
	runtime.GC()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	deadline := start.Add(env.measure)
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				i := int(ops.Add(1) - 1)
				traced := env.tr != nil && i%2 == 0
				j := nextJob()
				t := time.Now()
				err := s.run(k, j, env.tr.orNil(traced), i)
				lat := msSince(t)
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("op %d: %v", i, err)
				} else {
					o.lat = append(o.lat, lat)
					jobs = append(jobs, j)
					if traced {
						on = append(on, lat)
					} else {
						off = append(off, lat)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.wall = time.Since(start).Seconds()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	mallocs := mem1.Mallocs - mem0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&mem1)
	retained := float64(mem1.HeapAlloc) - float64(mem0.HeapAlloc)
	if n := s.settledOnSubmit.Load(); n > 0 {
		fmt.Printf("%s: %d fresh job(s) answered 200 on submit, not the documented 202\n", k.name, n)
	}
	s.close()
	s = nil

	// Every result must be bit-identical to an in-process Build+Run of the
	// same spec.
	var directMs []float64
	for _, j := range jobs {
		h, ms, err := direct(directDoc(k, j.seed), k.iters)
		if err != nil {
			return nil, err
		}
		directMs = append(directMs, ms)
		if h != j.hash {
			o.fail("job seed %d: served result differs from in-process Build+Run", j.seed)
		}
	}
	if env.tr == nil {
		return o, nil
	}

	n := float64(len(o.lat))
	st := env.tr.selfTimes()
	all := metricSet{}
	all.set("serve.upload_ms", "ms", st["serve.upload"].P50Ms)
	all.set("serve.submit_ms", "ms", st["serve.submit"].P50Ms)
	all.set("serve.queue_ms", "ms", st["serve.queue"].P50Ms)
	all.set("serve.run_ms", "ms", st["serve.run"].P50Ms)
	all.set("serve.result_ms", "ms", st["serve.result"].P50Ms)
	all.set("serve.direct_ms", "ms", median(directMs))
	all.set("serve.overhead_x", "x", median(o.lat)/median(directMs))
	var req, res float64
	for _, j := range jobs {
		req += float64(j.reqBytes)
		res += float64(j.resBytes)
	}
	all.set("serve.request_kb", "KiB", req/float64(len(jobs))/1024)
	all.set("serve.result_kb", "KiB", res/float64(len(jobs))/1024)
	all.set("serve.retained_kb_per_job", "KiB", retained/n/1024)
	all.set("serve.allocs_per_job", "count", float64(mallocs)/n)
	parse, marshal, err := wireSpecCost(directDoc(k, jobs[0].seed))
	if err != nil {
		return nil, err
	}
	all.set("wirespec.parse_ms", "ms", parse)
	all.set("wirespec.marshal_ms", "ms", marshal)
	for _, name := range k.layers {
		o.layers[name] = all[name]
	}
	o.layers.set("trace.overhead_pct."+k.name, "%", overheadPct(on, off))
	return o, nil
}

// direct builds and runs the spec document in process, hashes the result
// the way the service reports it, and times Build+Run alone.
func direct(doc []byte, iters int) (hash uint64, ms float64, err error) {
	w, err := abft.ParseWireSpec(doc)
	if err != nil {
		return 0, 0, err
	}
	spec, err := abft.SpecFromWire[float32](w)
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	p, err := abft.Build(spec)
	if err != nil {
		return 0, 0, err
	}
	p.Run(iters)
	ms = msSince(t)
	g := p.Grid().Data()
	d := make([]float64, len(g))
	for i, v := range g {
		d[i] = float64(v)
	}
	return hashGrid(d), ms, nil
}

// wireSpecCost times the service's spec codec on the canonical document a
// worker receives (grid inline): ParseWireSpec, and json.Marshal of the
// resolved Spec.
func wireSpecCost(doc []byte) (parse, marshal float64, err error) {
	w, err := abft.ParseWireSpec(doc)
	if err != nil {
		return 0, 0, err
	}
	spec, err := abft.SpecFromWire[float32](w)
	if err != nil {
		return 0, 0, err
	}
	canonical, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	var tp, tm []float64
	for range 9 {
		t := time.Now()
		if _, err := abft.ParseWireSpec(canonical); err != nil {
			return 0, 0, err
		}
		tp = append(tp, msSince(t))
		t = time.Now()
		if _, err := json.Marshal(spec); err != nil {
			return 0, 0, err
		}
		tm = append(tm, msSince(t))
	}
	return median(tp), median(tm), nil
}
