package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/twin"
)

// serveInstr is the per-warp instruction budget of every cell the serve
// stream submits.
const serveInstr = 1000

// serveTail is the tail percentile serve-mixed reports: a run completes
// a few thousand jobs, enough for p99.
const serveTail = 99

// A client polls a job's status at once, then after firstPoll, doubling
// the gap up to maxPoll: prompt for the cache hits that finish in a
// fraction of a millisecond, without a slow job's polls taking the CPU
// it runs on.
const (
	firstPoll = 250 * time.Microsecond
	maxPoll   = 4 * time.Millisecond
)

// scratchRoot holds the temporary service directories: inside the
// benchmark's build directory, so a run writes only there.
const scratchRoot = ".bench_build"

// Job kinds of the stream.
const (
	kindHit        = "hit"
	kindAnalytical = "analytical"
	kindDES        = "des"
	kindOptimize   = "optimize"
)

// job is one submission: its kind as the stream drew it, the endpoint and
// the request body.
type job struct {
	kind string
	path string
	body []byte
}

// serveWorkloads are the Table II workloads the stream's cells read: six
// distinct traces per seed.
var serveWorkloads = []string{"lud", "pagerank", "GRAMS", "sssp", "FDTD", "backp"}

// serveSeed is the config.Seed override a serve seed submits; it is kept
// below 2^53 so it survives JSON numbers exactly.
func serveSeed(seed uint64) uint64 { return configSeed(seed) >> 12 }

// warmPool is the set of requests the service answers from its result
// cache once warm: six sweeps and four scenarios, 22 DES cells. Its shape
// is fixed; the seed sets config.Seed.
func warmPool(seed uint64) ([]job, error) {
	s := serveSeed(seed)
	sweeps := []struct {
		platforms []config.Platform
		modes     []config.MemMode
		workloads []string
	}{
		{[]config.Platform{config.OhmBase, config.OhmBW}, []config.MemMode{config.Planar}, []string{"lud", "pagerank"}},
		{[]config.Platform{config.Hetero, config.AutoRW}, []config.MemMode{config.TwoLevel}, []string{"GRAMS", "sssp"}},
		{[]config.Platform{config.Oracle}, []config.MemMode{config.Planar}, []string{"FDTD", "lud", "backp"}},
		{[]config.Platform{config.OhmWOM}, []config.MemMode{config.Planar, config.TwoLevel}, []string{"pagerank"}},
		{[]config.Platform{config.Origin, config.OhmBW}, []config.MemMode{config.Planar}, []string{"sssp"}},
		{[]config.Platform{config.OhmBase, config.OhmWOM, config.OhmBW}, []config.MemMode{config.TwoLevel}, []string{"FDTD"}},
	}
	var pool []job
	for _, sw := range sweeps {
		spec := batch.SweepSpec{
			Platforms:       sw.platforms,
			Modes:           sw.modes,
			Workloads:       sw.workloads,
			MaxInstructions: serveInstr,
			Overrides:       batch.Overrides{"seed": {s}},
		}
		j, err := sweepJob(kindHit, serve.Request{Spec: &spec})
		if err != nil {
			return nil, err
		}
		pool = append(pool, j)
	}
	for _, sc := range []struct{ preset, mode, workload string }{
		{"ohm-bw", "planar", "pagerank"},
		{"auto-rw", "two-level", "lud"},
		{"oracle", "planar", "GRAMS"},
		{"hetero", "planar", "sssp"},
	} {
		j, err := sweepJob(kindHit, serve.Request{Scenario: scenario(sc.preset, sc.mode, sc.workload, map[string]interface{}{"seed": s})})
		if err != nil {
			return nil, err
		}
		pool = append(pool, j)
	}
	return pool, nil
}

func scenario(preset, mode, workload string, overrides map[string]interface{}) *config.Spec {
	overrides["max_instructions"] = serveInstr
	return &config.Spec{Preset: preset, Mode: mode, Overrides: overrides, Workload: &config.WorkloadSpec{Name: workload}}
}

func sweepJob(kind string, req serve.Request) (job, error) {
	body, err := json.Marshal(req)
	return job{kind: kind, path: "/v1/sweeps", body: body}, err
}

// blockKinds is one block of the stream: a client submits blocks of these
// 20 jobs in a seeded order, so every run has the same mix. Hits dominate;
// analytical sweeps exercise the twin, DES scenarios simulate cells whose
// overrides miss the result cache but whose traces are resident, and an
// optimizer job runs a small twin-evaluated search.
var blockKinds = []string{
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindAnalytical, kindAnalytical, kindAnalytical, kindAnalytical,
	kindDES, kindOptimize,
}

// streams is how many job streams one service sees: two measured clients
// and the two warm-up clients before them.
const streams = 4

// jobStream is one client's seeded sequence of jobs. client is the
// stream's number, below streams; draws counts its latencyOverride calls.
type jobStream struct {
	rng    *rand.Rand
	pool   []job
	seed   uint64
	block  []string
	client int
	draws  int
}

func newJobStream(seed uint64, client int, pool []job) *jobStream {
	return &jobStream{rng: rand.New(rand.NewPCG(seed, uint64(100+client))), pool: pool, seed: serveSeed(seed), client: client}
}

func (s *jobStream) pick(list []string) string { return list[s.rng.IntN(len(list))] }

// latencyOverride returns an XPoint write latency that no other call on
// any stream of the service returns: 700 ns plus one picosecond (the
// simulator's time unit, which the override rounds to) per call, the
// streams interleaved. A cell carrying it has a cache key no earlier job
// used, on a config whose trace is already resident, and the latency stays
// within a few tens of nanoseconds of 700 ns all run, so such a job costs
// the same at the end of a run as at its start.
func (s *jobStream) latencyOverride() float64 {
	ps := streams*s.draws + s.client
	s.draws++
	return 700 + float64(ps)/1000
}

func (s *jobStream) next() (job, error) {
	if len(s.block) == 0 {
		s.block = append([]string(nil), blockKinds...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	switch kind {
	case kindHit:
		return s.pool[s.rng.IntN(len(s.pool))], nil
	case kindAnalytical:
		ps := config.AllPlatforms()
		p1 := s.rng.IntN(len(ps))
		p2 := (p1 + 1 + s.rng.IntN(len(ps)-1)) % len(ps)
		w1 := s.rng.IntN(len(serveWorkloads))
		w2 := (w1 + 1 + s.rng.IntN(len(serveWorkloads)-1)) % len(serveWorkloads)
		spec := batch.SweepSpec{
			Platforms: []config.Platform{ps[p1], ps[p2]},
			Modes:     []config.MemMode{config.AllModes()[s.rng.IntN(2)]},
			Execs:     []config.ExecMode{config.ExecAnalytical},
			Workloads: []string{serveWorkloads[w1], serveWorkloads[w2]},
			Overrides: batch.Overrides{
				"seed":                    {s.seed},
				"optical.waveguides":      {1 + s.rng.IntN(8)},
				"xpoint.write_latency_ns": {s.latencyOverride()},
			},
			MaxInstructions: serveInstr,
		}
		return sweepJob(kind, serve.Request{Spec: &spec})
	case kindDES:
		p := config.AllPlatforms()[s.rng.IntN(len(config.AllPlatforms()))]
		sc := scenario(p.String(), s.pick([]string{"planar", "two-level"}), s.pick(serveWorkloads),
			map[string]interface{}{"seed": s.seed, "xpoint.write_latency_ns": s.latencyOverride()})
		return sweepJob(kind, serve.Request{Scenario: sc})
	default:
		// A fresh base keeps every optimizer job's evaluations cache misses.
		none := 0
		spec := search.Spec{
			Base: *scenario("ohm-bw", "planar", s.pick(serveWorkloads),
				map[string]interface{}{"seed": s.seed, "xpoint.write_latency_ns": s.latencyOverride()}),
			Axes:       []search.Axis{{Path: "optical.waveguides", Values: []interface{}{1, 2, 4, 8}}},
			Objectives: []search.Objective{{Metric: "throughput"}},
			Search:     search.Strategy{Algorithm: "random", Seed: int64(s.rng.IntN(1 << 20)), Budget: 4, ConfirmTop: &none},
		}
		body, err := json.Marshal(spec)
		return job{kind: kind, path: "/v1/optimize", body: body}, err
	}
}

// timedCache is the batch.Cache the traced stack installs around its
// DiskCache: it times every Get and Put and counts hits.
type timedCache struct {
	inner batch.Cache

	mu           sync.Mutex
	getUs, putUs []float64
	gets, hits   int
}

func (c *timedCache) Get(key string) (stats.Report, bool) {
	t := time.Now()
	rep, ok := c.inner.Get(key)
	d := time.Since(t)
	c.mu.Lock()
	c.getUs = append(c.getUs, us(d))
	c.gets++
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return rep, ok
}

func (c *timedCache) Put(key string, rep stats.Report) error {
	t := time.Now()
	err := c.inner.Put(key, rep)
	d := time.Since(t)
	c.mu.Lock()
	c.putUs = append(c.putUs, us(d))
	c.mu.Unlock()
	return err
}

// timedExecutor is the batch.Executor the traced stack installs as
// Manager.Executor: it times every call and files it under the job that
// made it (the job span the manager puts in the context).
type timedExecutor struct {
	inner batch.Executor

	mu   sync.Mutex
	jobs map[*obs.JobSpan]*execRecord
}

// execRecord is one job's executor use. A sweep job makes one call; an
// optimizer job makes several (baseline, then candidates).
type execRecord struct {
	calls      int
	total      time.Duration
	cells      int
	hits       int
	analytical bool
}

func (e *timedExecutor) RunContext(ctx context.Context, cells []batch.Cell, progress batch.Progress) ([]stats.Report, error) {
	hits := 0
	t := time.Now()
	reps, err := e.inner.RunContext(ctx, cells, func(done, total int, hit bool) {
		if hit {
			hits++
		}
		progress(done, total, hit)
	})
	d := time.Since(t)
	analytical := len(cells) > 0
	for _, c := range cells {
		analytical = analytical && c.Exec == config.ExecAnalytical
	}
	e.mu.Lock()
	if e.jobs == nil {
		e.jobs = map[*obs.JobSpan]*execRecord{}
	}
	span := obs.SpanFrom(ctx)
	r := e.jobs[span]
	if r == nil {
		r = &execRecord{}
		e.jobs[span] = r
	}
	r.calls++
	r.total += d
	r.cells += len(cells)
	r.hits += hits
	r.analytical = analytical
	e.mu.Unlock()
	return reps, err
}

// byKind returns each job's executor time in ms, grouped by the kind its
// calls show.
func (e *timedExecutor) byKind() map[string][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string][]float64{}
	for _, r := range e.jobs {
		kind := kindDES
		switch {
		case r.calls > 1:
			kind = kindOptimize
		case r.hits == r.cells:
			kind = kindHit
		case r.analytical:
			kind = kindAnalytical
		}
		out[kind] = append(out[kind], ms(r.total))
	}
	return out
}

// stack is one in-process service, wired as cmd/ohmserve wires it (disk
// cache, journal, access-log middleware) minus the dist dispatcher and
// admission control.
type stack struct {
	dir     string
	srv     *http.Server
	served  chan error
	mgr     *serve.Manager
	journal *serve.Journal
	base    string
	client  *http.Client
	cache   *timedCache
	exec    *timedExecutor
}

func startStack(traced bool) (*stack, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "serve-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	dc, err := batch.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		return fail(err)
	}
	var cache batch.Cache = dc
	if traced {
		st.cache = &timedCache{inner: dc}
		cache = st.cache
	}
	def := config.DefaultServe()
	runner := batch.NewRunner(def.CellWorkers, cache)
	logger := obs.NewLogger(io.Discard, slog.LevelInfo, false)
	st.mgr = serve.NewManager(runner, def.JobWorkers, def.QueueDepth)
	st.mgr.Retain = def.JobHistory
	st.mgr.Logger = logger
	if traced {
		st.exec = &timedExecutor{inner: batch.LocalExecutor{Runner: runner}}
		st.mgr.Executor = st.exec
	}
	journal, replayed, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return fail(err)
	}
	st.journal = journal
	st.mgr.Journal = journal
	st.mgr.Recover(replayed)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(st.mgr))
	st.srv = &http.Server{Handler: serve.Instrument(logger, mux), ReadHeaderTimeout: 5 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second}
	return st, nil
}

// close stops the server and the manager, waits for both, and removes the
// stack's directory.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.client.CloseIdleConnections()
	}
	if st.mgr != nil {
		st.mgr.Shutdown(ctx)
	}
	if st.journal != nil {
		errs = append(errs, st.journal.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// record is one job as its client saw it.
type record struct {
	job     job
	latency time.Duration // POST sent to the last result byte
	submit  time.Duration // POST round trip
	result  time.Duration // result GET round trip
	run     time.Duration // the job's timing.run_ns from its final status
	end     time.Duration // completion, from the start of the phase
	sum     [32]byte      // sha256 of the result body
	err     error
}

// do submits a job, polls its status until terminal and fetches its
// result.
func (st *stack) do(j job) record {
	r := record{job: j}
	t0 := time.Now()
	var status serve.Status
	if r.err = st.call(http.MethodPost, j.path, j.body, http.StatusAccepted, &status, nil); r.err != nil {
		return r
	}
	r.submit = time.Since(t0)
	for gap := time.Duration(0); ; gap = min(max(2*gap, firstPoll), maxPoll) {
		time.Sleep(gap)
		if r.err = st.call(http.MethodGet, "/v1/jobs/"+status.ID, nil, http.StatusOK, &status, nil); r.err != nil {
			return r
		}
		if status.State.Terminal() {
			break
		}
	}
	if status.State != serve.StateDone {
		r.err = fmt.Errorf("job %s (%s) ended %s: %s", status.ID, j.kind, status.State, status.Error)
		return r
	}
	if status.Timing != nil {
		r.run = status.Timing.Run
	}
	t1 := time.Now()
	h := sha256.New()
	if r.err = st.call(http.MethodGet, "/v1/jobs/"+status.ID+"/result", nil, http.StatusOK, nil, h); r.err != nil {
		return r
	}
	r.result = time.Since(t1)
	r.latency = time.Since(t0)
	copy(r.sum[:], h.Sum(nil))
	return r
}

// copyBufs recycles the buffers result bodies stream through, so the
// clients' own garbage stays out of alloc_kb_per_op.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// call makes one request, checks its status code, and decodes the body
// into v or copies it to w.
func (st *stack) call(method, path string, body []byte, want int, v any, w io.Writer) error {
	req, err := http.NewRequest(method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if v != nil {
		return json.NewDecoder(resp.Body).Decode(v)
	}
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	_, err = io.CopyBuffer(w, resp.Body, *buf)
	return err
}

// warm submits every pool job once, so the pool's cells sit in the
// result cache.
func (st *stack) warm(pool []job) error {
	for _, j := range pool {
		if r := st.do(j); r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return nil
}

// window is the span over which serve-mixed counts completed jobs; the
// throughput is the median over a run's windows, so a second in which
// another tenant of the machine held the CPUs does not move it.
const window = time.Second

// driveStats is one measured phase of the service.
type driveStats struct {
	recs       []record
	wall       time.Duration
	perWindow  []float64 // jobs completed in each whole window
	allocBytes uint64
}

// warmupPhase drives the service unmeasured before each measured phase:
// long enough for the runner's pooled run states and the heap to reach
// their steady size, which took the first seconds of a run otherwise.
const warmupPhase = 2 * time.Second

// drive runs two closed-loop clients against the stack until budget has
// elapsed; each finishes its job in flight. Client c follows job stream
// first+c, so a warm-up on other streams leaves the measured jobs' cache
// misses intact.
func (st *stack) drive(seed uint64, first int, pool []job, budget time.Duration) (driveStats, error) {
	var ds driveStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	recs := make([][]record, 2)
	errs := make([]error, 2)
	// Clients run until the budget has elapsed and the tail percentile
	// has the jobs it needs.
	var done atomic.Int64
	start := time.Now()
	more := func() bool { return time.Since(start) < budget || !tailAllowed(int(done.Load()), serveTail) }
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := newJobStream(seed, first+c, pool)
			for more() {
				j, err := stream.next()
				if err != nil {
					errs[c] = err
					return
				}
				r := st.do(j)
				r.end = time.Since(start)
				recs[c] = append(recs[c], r)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	if err := errors.Join(errs...); err != nil {
		return ds, err
	}
	ds.recs = append(recs[0], recs[1]...)
	ds.wall = time.Since(start)
	ds.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ds.perWindow = make([]float64, int(ds.wall/window))
	for _, r := range ds.recs {
		if w := int(r.end / window); r.err == nil && w < len(ds.perWindow) {
			ds.perWindow[w]++
		}
	}
	return ds, nil
}

// rate is the median jobs per second over the phase's windows, or the
// plain rate of a phase shorter than one window.
func (ds driveStats) rate() float64 {
	if len(ds.perWindow) == 0 {
		return float64(len(ds.recs)) / ds.wall.Seconds()
	}
	return median(ds.perWindow) / window.Seconds()
}

// serveSetupReps is how many times serve-mixed sets up its service.
const serveSetupReps = 5

// setUp starts a service and warms its cache from a cold trace registry,
// as a fresh ohmserve process would. It returns the service and the
// set-up's CPU seconds.
func setUp(pool []job, traced bool) (*stack, float64, error) {
	trace.ResetCache()
	c := cpuSeconds()
	st, err := startStack(traced)
	if err != nil {
		return nil, 0, err
	}
	if err := st.warm(pool); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, cpuSeconds() - c, nil
}

// expectation is what the in-process path produces for one request body.
type expectation struct {
	sum   [32]byte
	instr uint64
	err   error
}

// verifier recomputes results in process: a runner with an in-memory
// cache, the batch.Runner path ohmbatch uses, and search.Run over it.
type verifier struct {
	runner *batch.Runner
	seen   map[string]*expectation // by request body
}

func newVerifier() *verifier {
	return &verifier{runner: batch.NewRunner(0, batch.NewMemCache()), seen: map[string]*expectation{}}
}

// expectAll computes the expectation of every request body not seen yet,
// on GOMAXPROCS goroutines: verification runs after the measured phase,
// and re-simulating each cache-missing DES scenario is most of its cost.
func (v *verifier) expectAll(recs []record) {
	var todo []job
	for _, r := range recs {
		if _, ok := v.seen[string(r.job.body)]; !ok {
			v.seen[string(r.job.body)] = nil
			todo = append(todo, r.job)
		}
	}
	results := make([]*expectation, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				results[i] = v.expect(todo[i])
			}
		}()
	}
	wg.Wait()
	for i, j := range todo {
		v.seen[string(j.body)] = results[i]
	}
}

func (v *verifier) expect(j job) *expectation {
	e := &expectation{}
	var buf bytes.Buffer
	if j.path == "/v1/optimize" {
		var spec search.Spec
		if e.err = json.Unmarshal(j.body, &spec); e.err != nil {
			return e
		}
		res, err := search.Run(context.Background(), spec, search.Options{Executor: batch.LocalExecutor{Runner: v.runner}})
		if e.err = err; err == nil {
			e.err = search.WriteJSON(&buf, res)
		}
	} else {
		cells, err := requestCells(j)
		if e.err = err; err != nil {
			return e
		}
		reps, err := v.runner.Run(cells)
		if e.err = err; err != nil {
			return e
		}
		for i := range cells {
			if err := checkReport(cells[i], reps[i]); err != nil {
				e.err = err
				return e
			}
			e.instr += reps[i].Instructions
		}
		e.err = batch.WriteJSON(&buf, cells, reps)
	}
	e.sum = sha256.Sum256(buf.Bytes())
	return e
}

// requestCells expands a sweep or scenario body as the service does.
func requestCells(j job) ([]batch.Cell, error) {
	var req serve.Request
	if err := json.Unmarshal(j.body, &req); err != nil {
		return nil, err
	}
	spec := req.Spec
	if req.Scenario != nil {
		s, err := batch.ScenarioSpec(*req.Scenario)
		if err != nil {
			return nil, err
		}
		spec = &s
	}
	return spec.Cells()
}

// tally checks every record against the in-process result and returns the
// instructions the service simulated: those of the checked DES jobs, whose
// fresh overrides miss the result cache. Hits and twin estimates simulate
// nothing.
func (v *verifier) tally(recs []record, out *outcome) uint64 {
	v.expectAll(recs)
	var instr uint64
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.fail(r.err)
			continue
		}
		e := v.seen[string(r.job.body)]
		switch {
		case e.err != nil:
			out.fail(fmt.Errorf("%s job: in-process reference: %w", r.job.kind, e.err))
		case e.sum != r.sum:
			out.fail(fmt.Errorf("%s job %s: served result differs from the in-process result", r.job.kind, r.job.body))
		case r.job.kind == kindDES:
			instr += e.instr
		}
	}
	return instr
}

func latencies(recs []record, f func(record) time.Duration) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, ms(f(r)))
		}
	}
	return out
}

// runServe runs serve-mixed: set-up, then the two-client stream against
// one service (untraced), or against an untraced and then a traced
// service for half the budget each (traced).
func runServe(o opts) (*outcome, error) {
	pool, err := warmPool(o.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.detail["grid_size"] = len(pool)
	ver := newVerifier()

	budget := o.budget()
	if o.trace {
		budget /= 2
	}
	st, setup, err := setUp(pool, false)
	if err != nil {
		return nil, err
	}
	_, err = st.drive(o.seed, 2, pool, warmupPhase)
	if err != nil {
		st.close()
		return nil, err
	}
	ds, err := st.drive(o.seed, 0, pool, budget)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	if !o.trace {
		// The other set-ups run after the measured phase, so they cannot
		// raise its peak RSS.
		setups := []float64{setup}
		for i := 1; i < serveSetupReps; i++ {
			st, s, err := setUp(pool, false)
			if err != nil {
				return nil, err
			}
			if err := st.close(); err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		tv := time.Now()
		instr := ver.tally(ds.recs, out)
		out.detail["verify_s"] = time.Since(tv).Seconds()
		lat := latencies(ds.recs, func(r record) time.Duration { return r.latency })
		p50, _ := percentile(lat, 50)
		tail, err := percentile(lat, serveTail)
		if err != nil {
			return nil, fmt.Errorf("job_ms: %w", err)
		}
		rate := ds.rate()
		out.values["ops_per_s"] = rate
		out.values["op_ms_p50"] = p50
		out.values["op_ms_tail"] = tail
		out.values["sim_minstr_per_s"] = float64(instr) / 1e6 / ds.wall.Seconds()
		out.values["setup_s"] = median(setups)
		out.values["peak_rss_mb"] = rss
		out.values["alloc_kb_per_op"] = float64(ds.allocBytes) / 1024 / float64(len(ds.recs))
		out.detail["named"] = map[string]any{
			"jobs_per_s":      metric{rate, "1/s"},
			"job_ms_p50":      metric{p50, "ms"},
			"job_ms_p99":      metric{tail, "ms"},
			"error_rate":      metric{float64(out.failed) / float64(out.attempted), "ratio"},
			"setup_s":         metric{out.values["setup_s"], "s"},
			"peak_rss_mb":     metric{rss, "MB"},
			"alloc_kb_per_op": metric{out.values["alloc_kb_per_op"], "KB"},
		}
		out.detail["jobs"] = len(ds.recs)
		out.detail["highest_tail"], _ = highestTail(len(lat))
		out.detail["jobs_per_window"] = ds.perWindow
		out.detail["by_kind"] = kindSummary(ds.recs)
		return out, nil
	}

	tst, _, err := setUp(pool, true)
	if err != nil {
		return nil, err
	}
	_, err = tst.drive(o.seed, 2, pool, warmupPhase)
	if err != nil {
		tst.close()
		return nil, err
	}
	tds, err := tst.drive(o.seed, 0, pool, budget)
	if cerr := tst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ver.tally(ds.recs, out)
	ver.tally(tds.recs, out)
	trecs := tds.recs
	out.values["bench.trace_overhead"] = ds.rate() / tds.rate()
	out.values["serve.submit_ms_p50"] = median(latencies(trecs, func(r record) time.Duration { return r.submit }))
	out.values["serve.result_ms_p50"] = median(latencies(trecs, func(r record) time.Duration { return r.result }))
	out.values["serve.wait_ms_p50"] = median(latencies(trecs, func(r record) time.Duration { return r.latency - r.submit - r.result - r.run }))
	byKind := tst.exec.byKind()
	for _, k := range []string{kindHit, kindAnalytical, kindDES, kindOptimize} {
		out.values["batch.exec_ms_p50."+k] = median(byKind[k])
	}
	tc := tst.cache
	out.values["cache.get_us_p50"] = median(tc.getUs)
	out.values["cache.put_us_p50"] = median(tc.putUs)
	out.values["cache.hit_ratio"] = float64(tc.hits) / float64(tc.gets)

	est, err := twinReplay(trecs)
	if err != nil {
		return nil, err
	}
	out.values["twin.estimate_us"] = est
	var poolCells []batch.Cell
	for _, j := range pool {
		cells, err := requestCells(j)
		if err != nil {
			return nil, err
		}
		poolCells = append(poolCells, cells...)
	}
	_, gen, err := coldTraces(poolCells)
	if err != nil {
		return nil, err
	}
	out.values["trace.gen_ms"] = median(gen)
	return out, nil
}

// twinReplay times twin.Estimate directly on every analytical cell the
// stream submitted, returning the median in µs.
func twinReplay(recs []record) (float64, error) {
	var times []float64
	for _, r := range recs {
		if r.job.kind != kindAnalytical {
			continue
		}
		cells, err := requestCells(r.job)
		if err != nil {
			return 0, err
		}
		for i := range cells {
			w, ok := config.WorkloadByName(cells[i].Workload)
			if !ok {
				return 0, fmt.Errorf("unknown workload %q", cells[i].Workload)
			}
			t := time.Now()
			twin.Estimate(&cells[i].Config, w)
			times = append(times, us(time.Since(t)))
		}
	}
	return median(times), nil
}

// kindSummary is each job kind's count and latency medians, in ms.
func kindSummary(recs []record) map[string]any {
	groups := map[string][]record{}
	for _, r := range recs {
		groups[r.job.kind] = append(groups[r.job.kind], r)
	}
	out := map[string]any{}
	for k, rs := range groups {
		out[k] = map[string]any{
			"jobs":           len(rs),
			"latency_ms_p50": median(latencies(rs, func(r record) time.Duration { return r.latency })),
			"submit_ms_p50":  median(latencies(rs, func(r record) time.Duration { return r.submit })),
			"result_ms_p50":  median(latencies(rs, func(r record) time.Duration { return r.result })),
			"run_ms_p50":     median(latencies(rs, func(r record) time.Duration { return r.run })),
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
