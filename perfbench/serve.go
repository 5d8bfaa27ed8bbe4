package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/serve"
	"ahbpower/internal/topo"
)

// The daemon traffic. The rate is an open-loop arrival rate at half the
// capacity measured for this mix on a 2-vCPU x86-64 machine (about 440
// requests/s with client and server in one process); it is fixed so that
// two commits see the same offered load.
const (
	serveRate       = 220.0 // requests per second
	serveHotSet     = 16    // distinct cached scenarios the hits rotate through
	serveFreshEvery = 5     // one request in every block of 5 needs a run
	serveTraceEvery = 4     // every 4th fresh request asks for a windowed trace
	// serveTraceWindow is the trace window, 2 µs of simulated time (200
	// cycles at 100 MHz).
	serveTraceWindow = 2e-6
)

// request kinds of the daemon mix.
const (
	kindHit = iota
	kindFresh
)

// serveReq is one scheduled request of the mix.
type serveReq struct {
	kind int
	hot  int             // hot-set index of a hit
	sc   engine.Scenario // the run a fresh request asks for
	body []byte
}

// specOf renders a scenario as its wire form: topology, explicit traffic,
// cycle count and analyzer, with backend and accuracy left to the server
// defaults.
func specOf(sc engine.Scenario) serve.ScenarioSpec {
	spec := serve.ScenarioSpec{Name: sc.Name, Topology: sc.Topo, Cycles: sc.Cycles,
		Analyzer: &serve.AnalyzerSpec{Style: "global", TraceWindow: sc.Analyzer.TraceWindow}}
	for _, w := range sc.Workloads {
		spec.Workloads = append(spec.Workloads, serve.WorkloadSpec{
			Seed: w.Seed, NumSequences: w.NumSequences,
			PairsMin: w.PairsMin, PairsMax: w.PairsMax, IdleMin: w.IdleMin, IdleMax: w.IdleMax,
			AddrBase: w.AddrBase, AddrSize: w.AddrSize, LocalityWindow: w.LocalityWindow,
			Pattern: w.Pattern.String(), BurstBeats: w.BurstBeats,
		})
	}
	return spec
}

func requestBody(specs ...serve.ScenarioSpec) ([]byte, error) {
	return json.Marshal(serve.RunRequest{Scenarios: specs})
}

// serveScenario is one daemon scenario on shape t with traffic from stream.
func serveScenario(name string, t topo.Topology, seed int64, stream uint64, traceWindow float64) engine.Scenario {
	return engine.Scenario{
		Name: name, Topo: &t, Cycles: serveCycles,
		Workloads: paperTraffic(t, seed, stream, serveCycles),
		Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal, TraceWindow: traceWindow},
	}
}

// serveMix builds the hot set and the request schedule. Hits rotate
// through the hot set; fresh requests alternate between the paper shape
// and the non-uniform map with seeds no other request uses.
func serveMix(seed int64, n int) (hot []engine.Scenario, reqs []serveReq, err error) {
	paper := paperShape(3, 32, 0, 0)
	nonuni, err := nonuniformShape()
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < serveHotSet; k++ {
		hot = append(hot, serveScenario(fmt.Sprintf("hot%d", k), paper, seed, 1000+uint64(k), 0))
	}
	rng := rand.New(rand.NewSource(seed))
	fresh, freshSlot := 0, 0
	for i := 0; i < n; i++ {
		if i%serveFreshEvery == 0 {
			freshSlot = rng.Intn(serveFreshEvery)
		}
		if i%serveFreshEvery != freshSlot {
			reqs = append(reqs, serveReq{kind: kindHit, hot: rng.Intn(serveHotSet)})
			continue
		}
		shape, label := paper, "paper"
		if fresh%2 == 1 {
			shape, label = nonuni, "nonuniform"
		}
		window := 0.0
		if fresh%serveTraceEvery == serveTraceEvery-1 {
			window = serveTraceWindow
		}
		sc := serveScenario(fmt.Sprintf("fresh%d_%s", i, label), shape, seed, 100_000+uint64(i), window)
		reqs = append(reqs, serveReq{kind: kindFresh, sc: sc})
		fresh++
	}
	for i := range reqs {
		sc := reqs[i].sc
		if reqs[i].kind == kindHit {
			sc = hot[reqs[i].hot]
		}
		if reqs[i].body, err = requestBody(specOf(sc)); err != nil {
			return nil, nil, err
		}
	}
	return hot, reqs, nil
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	conns  int // client connections, at most the server's workers
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

// startDaemon starts a server with the given worker count and otherwise
// default settings (event backend, cycle accuracy, in-memory cache), and a
// client that opens at most as many connections as the server has workers.
func startDaemon(workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	d := &daemon{
		conns: workers,
		srv:   serve.New(serve.Config{Workers: workers}),
		done:  make(chan error, 1),
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain(time.Second)
	d.client.CloseIdleConnections()
	return err
}

// runResponse is the part of the /v1/run body the benchmark reads.
type runResponse struct {
	Results []json.RawMessage `json:"results"`
	Batch   struct {
		WallSeconds float64 `json:"wall_s"`
		CacheHits   int     `json:"cache_hits"`
		CacheMisses int     `json:"cache_misses"`
	} `json:"batch"`
}

// post sends one body and decodes the response; size is the body length.
func (d *daemon) post(path string, body []byte) (resp runResponse, size int, err error) {
	r, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return resp, 0, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, len(b), fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return resp, len(b), fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != 1 {
		return resp, len(b), fmt.Errorf("%d results for one scenario", len(resp.Results))
	}
	return resp, len(b), nil
}

// counters reads the server's expvar counters.
func (d *daemon) counters() (map[string]float64, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(d.srv.MetricsJSON()), &m); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// warm sends every hot-set scenario once, so the timed traffic finds them
// cached, and returns the fresh responses the hits must reproduce.
func (d *daemon) warm(hot []engine.Scenario) ([][]byte, error) {
	out := make([][]byte, len(hot))
	for k, sc := range hot {
		body, err := requestBody(specOf(sc))
		if err != nil {
			return nil, err
		}
		resp, _, err := d.post("/v1/run", body)
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", sc.Name, err)
		}
		if resp.Batch.CacheMisses != 1 {
			return nil, fmt.Errorf("warming %s: not a fresh run", sc.Name)
		}
		out[k] = resp.Results[0]
	}
	return out, nil
}

// openLoop sends n requests on a fixed schedule (request i is due at
// start + i/rate) over conns sender goroutines, whatever the state of
// earlier requests. lat[i] runs from request i's due time to its
// completion, so time a request spent queued behind a stalled one counts;
// late[i] is how late the generator released request i.
func openLoop(n int, rate float64, conns int, send func(i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	due := func(start time.Time, i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(i)
				lat[i] = time.Since(due(start, i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		at := due(start, i)
		time.Sleep(time.Until(at))
		late[i] = time.Since(at)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lat, late
}

// outcome is what one timed request returned.
type outcome struct {
	raw   []byte
	wall  float64 // the envelope's batch wall_s
	rtt   time.Duration
	size  int
	class string // "hit" or "fresh" as the server accounted it
	err   error
}

// loadResult is one open-loop pass of the mix.
type loadResult struct {
	out       []outcome
	lat, late []time.Duration
	// counters are the server's counter deltas over the pass.
	counters map[string]float64
}

// load drives reqs through the daemon open-loop at serveRate over the
// client's connections. With a tracer, each request becomes a "serve.run"
// span.
func (d *daemon) load(reqs []serveReq, tr *tracer) (*loadResult, error) {
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	lr := &loadResult{out: make([]outcome, len(reqs))}
	runtime.GC()
	lr.lat, lr.late = openLoop(len(reqs), serveRate, d.conns, func(i int) {
		id := tr.begin("serve.run", "req"+strconv.Itoa(i), 0)
		sent := time.Now()
		resp, size, err := d.post("/v1/run", reqs[i].body)
		done := time.Now()
		res := outcome{rtt: done.Sub(sent), size: size, err: err}
		tr.end(id)
		if err == nil {
			res.raw, res.wall = resp.Results[0], resp.Batch.WallSeconds
			if res.wall > 0 {
				// The server's own run, as a child span: its length is the
				// batch wall_s; its place inside the request is assumed to
				// end where the response arrived.
				tr.record("scenario.run", "req"+strconv.Itoa(i), id, done.Add(-time.Duration(res.wall*float64(time.Second))), done)
			}
			switch {
			case resp.Batch.CacheHits == 1:
				res.class = "hit"
			case resp.Batch.CacheMisses == 1:
				res.class = "fresh"
			}
		}
		lr.out[i] = res
	})
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	lr.counters = map[string]float64{}
	for k, v := range after {
		lr.counters[k] = v - before[k]
	}
	return lr, nil
}

// check verifies every response of a pass — hits byte-identical to the
// warm-up response, fresh runs bit-identical to a direct engine run made
// here, outside the timed window — and returns each fresh run's overhead:
// its round trip minus the batch's own wall_s.
func (lr *loadResult) check(rep *report, reqs []serveReq, hot []engine.Scenario, hotBytes [][]byte) (overheads latencies) {
	var freshIdx []int
	var freshScens []engine.Scenario
	for i := range reqs {
		if reqs[i].kind == kindFresh {
			freshIdx = append(freshIdx, i)
			freshScens = append(freshScens, reqs[i].sc)
		}
	}
	refs := newRunner(runtime.GOMAXPROCS(0)).Run(context.Background(), withBackend(freshScens, "auto", ""))
	ref := make(map[int]*engine.Result, len(freshIdx))
	for n, i := range freshIdx {
		ref[i] = &refs[n]
	}

	for i := range reqs {
		rep.Attempted++
		res := lr.out[i]
		var err error
		switch {
		case res.err != nil:
			err = res.err
		case reqs[i].kind == kindHit && res.class != "hit":
			err = fmt.Errorf("expected a cache hit, server ran it")
		case reqs[i].kind == kindHit:
			err = checkHit(res.raw, hotBytes[reqs[i].hot])
		case res.class != "fresh":
			err = fmt.Errorf("expected a fresh run, server answered from cache")
		default:
			err = checkFresh(res.raw, ref[i])
		}
		if reqs[i].kind == kindFresh && res.wall > 0 {
			overheads = append(overheads, res.rtt-time.Duration(res.wall*float64(time.Second)))
		}
		if err != nil {
			rep.Failed++
			rep.fail("request %d (%s): %v", i, reqName(reqs[i], hot), err)
		}
	}
	return overheads
}

// setupDaemon builds the mix for n requests, starts a daemon and warms its
// hot set.
func setupDaemon(seed int64, n, workers int) (d *daemon, hot []engine.Scenario, hotBytes [][]byte, reqs []serveReq, err error) {
	if hot, reqs, err = serveMix(seed, n); err != nil {
		return nil, nil, nil, nil, err
	}
	if d, err = startDaemon(workers); err != nil {
		return nil, nil, nil, nil, err
	}
	if hotBytes, err = d.warm(hot); err != nil {
		d.stop()
		return nil, nil, nil, nil, err
	}
	return d, hot, hotBytes, reqs, nil
}

func reqName(r serveReq, hot []engine.Scenario) string {
	if r.kind == kindHit {
		return "hit " + hot[r.hot].Name
	}
	return r.sc.Name
}
