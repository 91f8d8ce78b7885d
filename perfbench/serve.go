package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entangling/internal/client"
	"entangling/internal/fleet"
	"entangling/internal/harness"
	"entangling/internal/server"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// The serve workloads are the small-cell use of the simulator: a closed
// loop of nproc SDK clients, one connection each, against a node on
// loopback. Every client round submits the same shape of traffic:
//
//	cold A      configurations {c1, c2} on workload a at the round's window
//	cold B      {c3, c4} on a, same window: a second job on the same trace
//	cold C      {c1} on workload b, same window
//	upload      the client's next 30k generated instructions
//	trace job   {c1, c2} on trace:<id> of that upload (serve-mix only)
//	repeat A    the same request as A: answered by job dedupe
//	recombine   {c1, c3} on a: a new job whose cells are all cached
//	repeat C    the same request as C
//
// The seed picks a, b, the configurations and the uploaded program; the
// window (warmup 20000 + 16 x the round's index, measure 10000) is new
// in every round of every client, so cold cells are cold. Fixed per-cell
// cost (trace build, machine build, checkpoint fsync, HTTP and SSE)
// dominates these cells; reads (repeats, recombinations) sit beside
// writes (cold cells, uploads). serve-fleet runs the same traffic
// through a coordinator and two workers; the fleet refuses jobs on
// uploaded traces (their content lives only on the coordinator), so its
// rounds leave the trace job out.

const (
	serveWarmup    = 20_000
	serveMeasure   = 10_000
	uploadInstrs   = serveWarmup + serveMeasure
	serveSetups    = 21
	fleetWorkers   = 2
	jobTimeout     = time.Minute
	minTailSamples = 110 // cold and hit jobs a run collects at least
)

type jobKind int

const (
	coldJob jobKind = iota
	traceJob
	repeatJob
	recombineJob
)

func (k jobKind) cold() bool { return k == coldJob || k == traceJob }

// jobRecord is one job the benchmark submitted.
type jobRecord struct {
	kind          jobKind
	client, round int
	req           server.JobRequest
	// of is the job a repeat repeats.
	of      *jobRecord
	id      string
	deduped bool
	// cells and state are the result document's; raw is the document
	// itself, kept until the client's round ends.
	cells   server.CellCounts
	state   string
	raw     []byte
	answer  answer
	latency float64       // ms, submit to result
	done    time.Duration // since the timed phase began
	err     error
}

// uploadRecord is one trace the benchmark uploaded.
type uploadRecord struct {
	client, round int
	id            string
	instructions  uint64
	latency       float64
	err           error
}

// roundPlan is one client round's requests.
type roundPlan struct {
	a, b, c, recombine server.JobRequest
	traceCfgs          []string
}

// servePool is the workloads the mix draws from: the job server's CVP
// registry at its default size.
func servePool() []workload.Spec { return workload.CVPSuite(6) }

// planRound derives a client round's requests from the seed.
func planRound(seed uint64, client, round, clients int) roundPlan {
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15) ^ int64(client)<<32 ^ int64(round)))
	pool := servePool()
	wl := rng.Perm(len(pool))
	cf := rng.Perm(len(sweepConfigNames))
	c := func(i int) string { return sweepConfigNames[cf[i]] }
	a, b := pool[wl[0]].Name, pool[wl[1]].Name
	warmup := uint64(serveWarmup + 16*(round*clients+client))
	job := func(cfgs []string, wl string) server.JobRequest {
		return server.JobRequest{Configurations: cfgs, Workloads: []string{wl}, Warmup: warmup, Measure: serveMeasure}
	}
	return roundPlan{
		a:         job([]string{c(0), c(1)}, a),
		b:         job([]string{c(2), c(3)}, a),
		c:         job([]string{c(0)}, b),
		recombine: job([]string{c(0), c(2)}, a),
		traceCfgs: []string{c(0), c(1)},
	}
}

// uploadSource returns the walker a client's uploads are cut from: a
// srv-like program varied by the seed and the client.
func uploadSource(seed uint64, client int) (*workload.Walker, error) {
	p := workload.Vary(workload.Preset(workload.Srv), seed*0x100000001b3+uint64(client)+1)
	p.Name = fmt.Sprintf("upload-%d", client)
	prog, err := workload.BuildProgram(p)
	if err != nil {
		return nil, err
	}
	return workload.NewWalker(prog), nil
}

// nextChunk returns the walker's next uploadInstrs instructions.
func nextChunk(w *workload.Walker) ([]trace.Instruction, error) {
	instrs := make([]trace.Instruction, uploadInstrs)
	for i := range instrs {
		if !w.Next(&instrs[i]) {
			return nil, fmt.Errorf("walker ended after %d instructions", w.Count())
		}
	}
	return instrs, nil
}

// node is a booted service on loopback.
type node struct {
	url   string
	coord *fleet.Coordinator
	// stop drains the node and waits for everything it started; it
	// may be called more than once.
	stop func()
}

// bootNode starts a standalone server, or a coordinator server with its
// workers, as cmd/entangling-served runs them, and returns once the
// public API answers /healthz.
func bootNode(dir string, fleetMode bool, tap *wireTap) (*node, error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	cfg := server.Config{
		Addr: "127.0.0.1:0", CheckpointDir: filepath.Join(dir, "checkpoints"),
		// The entangling-served flag defaults.
		Retries: 2, RetryBaseDelay: 100 * time.Millisecond,
	}
	n := &node{}
	if fleetMode {
		var peers []string
		for i := 0; i < fleetWorkers; i++ {
			w := fleet.NewWorker(fleet.WorkerConfig{
				ID: fmt.Sprintf("w%d", i), Retries: cfg.Retries, RetryBaseDelay: cfg.RetryBaseDelay,
			})
			url, stop, err := serveHTTP(tap.wrap(w.Handler()))
			if err != nil {
				stopAll()
				return nil, err
			}
			stops = append(stops, stop)
			peers = append(peers, url)
		}
		store, err := harness.OpenCheckpointStore(cfg.CheckpointDir)
		if err != nil {
			stopAll()
			return nil, err
		}
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Peers: peers, Store: store, StealAfter: 15 * time.Second,
		})
		if err != nil {
			stopAll()
			return nil, err
		}
		stops = append(stops, coord.Close)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = coord.WaitReady(ctx)
		cancel()
		if err != nil {
			stopAll()
			return nil, err
		}
		n.coord = coord
		cfg.Dispatcher = coord
		// As -trace-dir sets it: coordinator mode derives no trace
		// directory from the checkpoint directory.
		cfg.TraceDir = filepath.Join(dir, "traces")
		cfg.CheckpointDir = ""
	}

	cfg.Logf = func(string, ...any) {}
	srv, err := server.New(cfg)
	if err != nil {
		stopAll()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	stops = append(stops, func() { cancel(); <-done })
	var stopOnce sync.Once
	n.stop = func() { stopOnce.Do(stopAll) }
	// Run publishes its address once it listens; spin until then rather
	// than sleep, so the wait adds no sleep granularity to set-up time.
	for srv.Addr() == "" {
		select {
		case err := <-done:
			done <- err
			stopAll()
			return nil, fmt.Errorf("server: %v", err)
		default:
			runtime.Gosched()
		}
	}
	n.url = "http://" + srv.Addr()
	cl, err := client.New(client.Config{BaseURL: n.url})
	if err != nil {
		stopAll()
		return nil, err
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer hcancel()
	if err := cl.Healthz(hctx); err != nil {
		stopAll()
		return nil, err
	}
	return n, nil
}

// serveHTTP serves h on a loopback port until the returned stop runs.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	}, nil
}

// mixClient is one closed-loop client.
type mixClient struct {
	id, clients int
	seed        uint64
	withTrace   bool
	cl          *client.Client
	transport   *http.Transport
	walker      *workload.Walker
	start       time.Time // of the timed phase
	tr          *tracer   // per-call timings; nil unless traced

	jobs    []*jobRecord
	uploads []*uploadRecord
	rounds  int
}

func newMixClient(url string, id, clients int, seed uint64, withTrace bool, tr *tracer, retries *atomic.Int64) (*mixClient, error) {
	w, err := uploadSource(seed, id)
	if err != nil {
		return nil, err
	}
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	cl, err := client.New(client.Config{
		BaseURL: url,
		HTTP:    &http.Client{Transport: t},
		Logf:    func(string, ...any) { retries.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	return &mixClient{id: id, clients: clients, seed: seed, withTrace: withTrace, cl: cl, transport: t,
		walker: w, tr: tr}, nil
}

// round runs one client round.
func (c *mixClient) round(ctx context.Context, r int) {
	p := planRound(c.seed, c.id, r, c.clients)
	first := len(c.jobs)
	a := c.job(ctx, r, coldJob, p.a, nil)
	c.job(ctx, r, coldJob, p.b, nil)
	cc := c.job(ctx, r, coldJob, p.c, nil)
	if id := c.upload(ctx, r); id != "" && c.withTrace {
		c.job(ctx, r, traceJob, server.JobRequest{
			Configurations: p.traceCfgs, Workloads: []string{"trace:" + id},
			Warmup: serveWarmup, Measure: serveMeasure,
		}, nil)
	}
	c.job(ctx, r, repeatJob, a.req, a)
	c.job(ctx, r, recombineJob, p.recombine, nil)
	c.job(ctx, r, repeatJob, cc.req, cc)
	c.rounds++
	for _, j := range c.jobs[first:] {
		j.raw = nil
	}
}

// job submits one request and follows it to its result with
// Client.Events and Client.Result.
func (c *mixClient) job(ctx context.Context, r int, kind jobKind, req server.JobRequest, of *jobRecord) *jobRecord {
	rec := &jobRecord{kind: kind, client: c.id, round: r, req: req, of: of}
	c.jobs = append(c.jobs, rec)
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()

	start := time.Now()
	sub, err := c.cl.Submit(ctx, req)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	c.tr.since("server.submit_ms", start)
	rec.id, rec.deduped = sub.ID, sub.Deduped

	t := time.Now()
	if err := c.cl.Events(ctx, sub.ID, func(server.Event) error { return nil }); err != nil {
		rec.err = fmt.Errorf("events: %w", err)
		return rec
	}
	c.tr.since("server.events_ms", t)

	t = time.Now()
	doc, raw, done, err := c.cl.Result(ctx, sub.ID)
	switch {
	case err != nil:
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	case !done:
		rec.err = fmt.Errorf("result: job %s not terminal after job.done", sub.ID)
		return rec
	}
	c.tr.since("server.result_ms", t)
	rec.latency = ms(time.Since(start))
	rec.done = time.Since(c.start)
	rec.cells, rec.state, rec.raw = doc.Cells, doc.State, raw
	if rec.answer, err = answerOf(raw); err != nil {
		rec.err = err
	} else if of != nil && of.raw != nil {
		rec.err = checkHitBytes(of.raw, raw)
	}
	return rec
}

// upload sends the client's next chunk of generated instructions and
// returns the trace ID ("" on failure).
func (c *mixClient) upload(ctx context.Context, r int) string {
	rec := &uploadRecord{client: c.id, round: r}
	c.uploads = append(c.uploads, rec)
	instrs, err := nextChunk(c.walker)
	if err != nil {
		rec.err = err
		return ""
	}
	body, err := encodeTrace(instrs)
	if err != nil {
		rec.err = err
		return ""
	}
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	start := time.Now()
	doc, err := c.cl.UploadTrace(ctx, body, "")
	if err != nil {
		rec.err = fmt.Errorf("upload: %w", err)
		return ""
	}
	rec.latency = ms(time.Since(start))
	rec.id, rec.instructions = doc.ID, doc.Instructions
	return doc.ID
}

func runServe(ctx context.Context, o runOpts, fleetMode bool) *outcome {
	out := &outcome{metrics: map[string]metric{}}
	name := "serve-mix"
	if fleetMode {
		name = "serve-fleet"
	}
	var tap *wireTap
	if fleetMode {
		tap = &wireTap{tr: o.tr}
	}

	// Set-up: boot the node several times over the same directories, as
	// a node restarts; the last boot serves the run. Only the first boot
	// creates the directories, so the median is a restart.
	var setups []float64
	var n *node
	for i := 0; i < serveSetups; i++ {
		if n != nil {
			n.stop()
		}
		runtime.GC()
		start := time.Now()
		var err error
		n, err = bootNode(filepath.Join(o.dir, name), fleetMode, tap)
		if err != nil {
			out.fail("boot: %v", err)
			return out
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer n.stop()

	clients := runtime.NumCPU()
	var retries atomic.Int64
	mcs := make([]*mixClient, clients)
	for i := range mcs {
		var err error
		var tr *tracer
		if !fleetMode {
			tr = o.tr
		}
		if mcs[i], err = newMixClient(n.url, i, clients, o.seed, !fleetMode, tr, &retries); err != nil {
			out.fail("client %d: %v", i, err)
			return out
		}
	}

	// Every client makes at least enough rounds for the cold and hit
	// latencies to have ten samples beyond their p90. A round has three
	// hit jobs and three or four cold ones.
	const hitsPerRound = 3
	minRounds := (minTailSamples + hitsPerRound*clients - 1) / (hitsPerRound * clients)

	runtime.GC()
	a0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for _, mc := range mcs {
		mc.start = start
		wg.Add(1)
		go func(mc *mixClient) {
			defer wg.Done()
			for r := 0; r < minRounds || time.Since(start) < o.seconds; r++ {
				mc.round(ctx, r)
			}
		}(mc)
	}
	wg.Wait()
	wall := time.Since(start)
	allocated := totalAlloc() - a0
	rss, rssErr := peakRSSMB()

	var jobs []*jobRecord
	var uploads []*uploadRecord
	rounds := 0
	for _, mc := range mcs {
		jobs = append(jobs, mc.jobs...)
		uploads = append(uploads, mc.uploads...)
		rounds += mc.rounds
		mc.transport.CloseIdleConnections()
	}

	text, err := mcs[0].cl.Metrics(ctx)
	if err != nil {
		out.fail("reading /metrics: %v", err)
	}
	var stats fleet.CoordinatorStats
	if fleetMode {
		stats = n.coord.Stats()
	}
	n.stop()

	// Accounting, and every check that needs no simulation.
	var coldMS, hitMS, uploadMS []float64
	coldCells, hitCells := 0, 0
	tally := map[string]uint64{}
	for _, j := range jobs {
		out.attempted++
		if j.err == nil {
			j.err = checkJob(j, fleetMode)
		}
		if j.err != nil {
			out.failed++
			out.fail("client %d round %d job %v %v: %v", j.client, j.round, j.req.Configurations, j.req.Workloads, j.err)
			continue
		}
		cells := len(j.req.Configurations) * len(j.req.Workloads)
		switch {
		case j.kind.cold():
			coldMS = append(coldMS, j.latency)
			coldCells += cells
			tally["entangling_jobs_submitted_total"]++
		case j.kind == repeatJob:
			hitMS = append(hitMS, j.latency)
			tally["entangling_jobs_deduped_total"]++
		default:
			hitMS = append(hitMS, j.latency)
			hitCells += cells
			tally["entangling_jobs_submitted_total"]++
		}
	}
	for _, u := range uploads {
		out.attempted++
		if u.err != nil {
			out.failed++
			out.fail("client %d round %d upload: %v", u.client, u.round, u.err)
			continue
		}
		uploadMS = append(uploadMS, u.latency)
		tally["entangling_traces_uploaded_total"]++
	}
	tally["entangling_jobs_completed_total"] = tally["entangling_jobs_submitted_total"]
	tally["entangling_cells_cache_memory_total"] = uint64(hitCells)
	for _, k := range []string{"cells_cache_store", "cells_shared", "cells_failed", "jobs_degraded", "jobs_failed", "traces_deduped", "traces_rejected"} {
		tally["entangling_"+k+"_total"] = 0
	}
	if fleetMode {
		tally["entangling_cells_fleet_total"] = uint64(coldCells) - stats.Stolen
		tally["entangling_cells_stolen_total"] = stats.Stolen
		tally["entangling_cells_simulated_total"] = 0
	} else {
		tally["entangling_cells_simulated_total"] = uint64(coldCells)
	}
	counters, err := parseCounters(text)
	if err == nil {
		err = checkCounters(counters, tally)
	}
	if err != nil {
		out.fail("/metrics: %v", err)
	}
	if !fleetMode && o.tr != nil {
		builds, hits := counters["entangling_trace_builds_total"], counters["entangling_trace_hits_total"]
		o.tr.add("server.trace_hit_ratio", ratio(hits, builds+hits))
		o.tr.add("server.cell_cache_hit_ratio", ratio(uint64(hitCells), uint64(hitCells+coldCells)))
		o.tr.add("server.cells_simulated", float64(counters["entangling_cells_simulated_total"]))
		for _, u := range uploadMS {
			o.tr.add("server.upload_ms", u)
		}
		o.tr.add("client.retries", float64(retries.Load()))
	}
	if fleetMode && o.tr != nil {
		o.tr.add("fleet.failovers", float64(stats.Failovers))
		if err := tap.decodeProbe(); err != nil {
			out.fail("fleet wire decode: %v", err)
		}
	}

	// Checks that recompute cells outside the timed phase.
	for _, e := range verifyUploads(o.seed, clients, uploads) {
		out.fail("%v", e)
	}
	for _, e := range verifyJobs(ctx, o.seed, clients, jobs) {
		out.fail("%v", e)
	}

	out.notes = append(out.notes,
		fmt.Sprintf("%s: clients=%d rounds=%d jobs=%d (cold %d, hit %d) uploads=%d cold_cells=%d client_retries=%d trace_builds=%d trace_hits=%d",
			name, clients, rounds, len(jobs), len(coldMS), len(hitMS), len(uploads), coldCells, retries.Load(),
			counters["entangling_trace_builds_total"], counters["entangling_trace_hits_total"]),
		fmt.Sprintf("%s: round-0 answers of client 0 (trace jobs left out) sha256=%s", name, firstRoundDigest(jobs)))
	if p, err := percentile(uploadMS, 50); err == nil {
		out.notes = append(out.notes, fmt.Sprintf("%s: upload_p50_ms=%.4f over %d uploads", name, p, len(uploadMS)))
	}
	jobRate, cellRate := windowRates(jobs, wall, o.seconds)
	out.metrics["setup_s"] = metric{median(setups), "s"}
	out.metrics["jobs_per_s"] = metric{jobRate, "1/s"}
	out.metrics["sim_minstr_per_s"] = metric{cellRate * (serveWarmup + serveMeasure) / 1e6, "Minstr/s"}
	out.setTail("cold_job", coldMS)
	out.setTail("hit_job", hitMS)
	out.metrics["alloc_mb"] = metric{float64(allocated) / 1e6 / float64(rounds), "MB"}
	if rssErr != nil {
		out.fail("peak RSS: %v", rssErr)
	} else {
		out.metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	return out
}

// rateWindow is the length of the windows throughput is counted in.
const rateWindow = 2 * time.Second

// windowRates splits the timed phase into windows of about rateWindow
// and returns the median over windows of the jobs and of the cold cells
// completed per second, so a few seconds of a slower host move neither.
// A window's rate counts the completions after its first one, over the
// time from its first completion to its last. The windows cover the
// timed phase up to its deadline; the last rounds, which finish after
// it with fewer clients busy, are left out.
func windowRates(jobs []*jobRecord, wall, seconds time.Duration) (jobsPerS, cellsPerS float64) {
	span := wall
	if seconds > 0 && seconds < wall {
		span = seconds
	}
	n := max(1, int(span/rateWindow))
	width := span / time.Duration(n)
	windows := make([][]*jobRecord, n)
	for _, j := range jobs {
		if j.err == nil && j.done < span {
			w := int(j.done / width)
			windows[w] = append(windows[w], j)
		}
	}
	var jobRates, cellRates []float64
	for _, w := range windows {
		if len(w) < 2 {
			continue
		}
		sort.Slice(w, func(a, b int) bool { return w[a].done < w[b].done })
		el := (w[len(w)-1].done - w[0].done).Seconds()
		cells := 0
		for _, j := range w[1:] {
			if j.kind.cold() {
				cells += len(j.req.Configurations) * len(j.req.Workloads)
			}
		}
		jobRates = append(jobRates, float64(len(w)-1)/el)
		cellRates = append(cellRates, float64(cells)/el)
	}
	return median(jobRates), median(cellRates)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkJob checks what a single answer shows about how it was made.
// A repeat's bytes were compared with the first answer when it came.
func checkJob(j *jobRecord, fleetMode bool) error {
	cells := len(j.req.Configurations) * len(j.req.Workloads)
	c := j.cells
	switch {
	case j.state != server.StateCompleted:
		return fmt.Errorf("state %s", j.state)
	case c.Total != cells || c.Done != cells || c.Failed != 0:
		return fmt.Errorf("cells %+v, want %d done", c, cells)
	case j.kind == repeatJob:
		if j.of.err != nil {
			return fmt.Errorf("repeats a failed job")
		}
		if !j.deduped || j.of.id != j.id {
			return fmt.Errorf("repeat of job %s answered as job %s (deduped %v)", j.of.id, j.id, j.deduped)
		}
	case j.deduped:
		return fmt.Errorf("new request deduped onto job %s", j.id)
	case j.kind == recombineJob && c.CacheMemory != cells:
		return fmt.Errorf("recombined cells resolved as %+v, want all from the memory cache", c)
	case j.kind.cold() && !fleetMode && c.Simulated != cells:
		return fmt.Errorf("cold cells resolved as %+v, want all simulated", c)
	case j.kind.cold() && fleetMode && c.Fleet+c.Stolen != cells:
		return fmt.Errorf("cold cells resolved as %+v, want all by fleet workers", c)
	}
	return nil
}

// verifyUploads regenerates every client's uploads and checks each
// trace ID against the SHA-256 of what was sent.
func verifyUploads(seed uint64, clients int, uploads []*uploadRecord) []error {
	var errs []error
	for cl := 0; cl < clients; cl++ {
		w, err := uploadSource(seed, cl)
		if err != nil {
			return append(errs, err)
		}
		for _, u := range uploads {
			if u.client != cl {
				continue
			}
			instrs, err := nextChunk(w)
			if err != nil {
				return append(errs, err)
			}
			if u.err != nil {
				continue
			}
			if err := checkTraceID(u.id, instrs); err != nil {
				errs = append(errs, fmt.Errorf("client %d round %d upload: %w", cl, u.round, err))
			}
			if u.instructions != uploadInstrs {
				errs = append(errs, fmt.Errorf("client %d round %d upload: server counted %d instructions, sent %d",
					cl, u.round, u.instructions, uploadInstrs))
			}
		}
	}
	return errs
}

// verifyJobs runs every cell the mix asked for directly through the
// harness and checks each new job's metrics against that run. Repeats
// were already compared byte for byte with the job they repeat.
func verifyJobs(ctx context.Context, seed uint64, clients int, jobs []*jobRecord) []error {
	type group struct {
		spec    workload.Spec
		cfgs    []string
		warmup  uint64
		results map[string]harness.RunResult
		err     error
	}
	specs := map[string]workload.Spec{}
	for _, s := range servePool() {
		specs[s.Name] = s
	}
	traceSpecs := map[string]workload.Spec{}
	if err := traceSpecsFor(seed, clients, jobs, traceSpecs); err != nil {
		return []error{err}
	}

	groups := map[string]*group{}
	var order []*group
	for _, j := range jobs {
		if j.err != nil || j.kind == repeatJob {
			continue
		}
		for _, wl := range j.req.Workloads {
			key := fmt.Sprintf("%s@%d", wl, j.req.Warmup)
			g := groups[key]
			if g == nil {
				spec, ok := specs[wl]
				if !ok {
					spec = traceSpecs[wl]
				}
				g = &group{spec: spec, warmup: j.req.Warmup}
				groups[key] = g
				order = append(order, g)
			}
			for _, c := range j.req.Configurations {
				if !contains(g.cfgs, c) {
					g.cfgs = append(g.cfgs, c)
				}
			}
		}
	}

	// Each group is one single-workload sweep; groups run nproc at a time.
	next := make(chan *group)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				cfgs, err := configsByName(g.cfgs)
				if err != nil {
					g.err = err
					continue
				}
				res, err := harness.RunSuiteCtx(ctx, []workload.Spec{g.spec}, cfgs,
					harness.Options{Warmup: g.warmup, Measure: serveMeasure, Parallelism: 1})
				if err != nil {
					g.err = err
					continue
				}
				g.results = map[string]harness.RunResult{}
				for _, c := range g.cfgs {
					g.results[c] = res.Runs[c][g.spec.Name]
				}
			}
		}()
	}
	for _, g := range order {
		next <- g
	}
	close(next)
	wg.Wait()

	var errs []error
	for _, j := range jobs {
		if j.err != nil || j.kind == repeatJob {
			continue
		}
		s := &harness.SuiteResults{
			Runs:          map[string]map[string]harness.RunResult{},
			ConfigOrder:   j.req.Configurations,
			WorkloadOrder: j.req.Workloads,
		}
		var gerr error
		for _, c := range j.req.Configurations {
			s.Runs[c] = map[string]harness.RunResult{}
			for _, wl := range j.req.Workloads {
				g := groups[fmt.Sprintf("%s@%d", wl, j.req.Warmup)]
				if g.err != nil {
					gerr = g.err
				}
				s.Runs[c][wl] = g.results[c]
			}
		}
		if gerr != nil {
			errs = append(errs, fmt.Errorf("direct run for job %s: %w", j.id, gerr))
			continue
		}
		want, err := metricsExport(s)
		if err == nil {
			err = checkJobMetrics(j.answer, want)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("client %d round %d job %s %v %v: %w",
				j.client, j.round, j.id, j.req.Configurations, j.req.Workloads, err))
		}
	}
	return errs
}

// traceSpecsFor rebuilds, for every trace job, the trace-backed spec the
// server resolved, over the instructions the client uploaded.
func traceSpecsFor(seed uint64, clients int, jobs []*jobRecord, out map[string]workload.Spec) error {
	want := map[int]map[int]bool{} // client -> rounds with a trace job
	for _, j := range jobs {
		if j.kind == traceJob && j.err == nil {
			if want[j.client] == nil {
				want[j.client] = map[int]bool{}
			}
			want[j.client][j.round] = true
		}
	}
	for cl := 0; cl < clients; cl++ {
		if len(want[cl]) == 0 {
			continue
		}
		w, err := uploadSource(seed, cl)
		if err != nil {
			return err
		}
		last := 0
		for r := range want[cl] {
			last = max(last, r)
		}
		for r := 0; r <= last; r++ {
			instrs, err := nextChunk(w)
			if err != nil {
				return err
			}
			if !want[cl][r] {
				continue
			}
			body, err := encodeTrace(instrs)
			if err != nil {
				return err
			}
			id := sha256Hex(body)
			name := "trace:" + id
			out[name] = workload.TraceSpec(name, id, func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(body)), nil
			})
		}
	}
	return nil
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// firstRoundDigest hashes client 0's round-0 answers, trace jobs left
// out, so serve-mix and serve-fleet runs with one seed can be compared.
func firstRoundDigest(jobs []*jobRecord) string {
	var b strings.Builder
	for _, j := range jobs {
		if j.client == 0 && j.round == 0 && j.kind != traceJob {
			fmt.Fprintf(&b, "%v %v %d %s\n", j.req.Configurations, j.req.Workloads, j.req.Warmup, j.answer.statedSHA)
		}
	}
	return sha256Hex([]byte(b.String()))
}
