package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"entangling/internal/bpred"
	"entangling/internal/cache"
	"entangling/internal/core"
	"entangling/internal/cpu"
	"entangling/internal/fleet"
	"entangling/internal/harness"
	"entangling/internal/prefetch"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// This file is the traced run: per-layer figures, each timed from the
// benchmark around public calls into one package. Calls that last
// under a microsecond are timed in batches.

// traceOrder is the order the traced run makes its workloads in.
var traceOrder = []string{"sweep", "serve-mix", "serve-fleet"}

// tracedRun makes the named workload for its full length and the other
// two for their fewest rounds, all with tracing on, then runs the
// component probes. Every per-layer figure thus comes from one run,
// whichever workload is named.
func tracedRun(ctx context.Context, name string, o runOpts) *outcome {
	tr := newTracer()
	out := &outcome{metrics: map[string]metric{}}
	for _, w := range traceOrder {
		wo := o
		wo.tr = tr
		if w != name {
			wo.seconds = 0
		}
		res := workloads[w](ctx, wo)
		out.attempted += res.attempted
		out.failed += res.failed
		out.errs = append(out.errs, res.errs...)
		out.notes = append(out.notes, res.notes...)
		if w == name {
			var b bytes.Buffer
			for _, k := range sortedKeys(res.metrics) {
				fmt.Fprintf(&b, " %s=%.6g", k, res.metrics[k].Value)
			}
			out.notes = append(out.notes, "traced end-to-end:"+b.String())
		}
	}
	if err := runProbes(ctx, o, tr); err != nil {
		out.fail("probes: %v", err)
	}
	layerMetrics(tr, out)
	return out
}

// layerMetrics turns the traced samples into the per-layer metrics.
func layerMetrics(tr *tracer, out *outcome) {
	single := func(name, unit string) {
		v := tr.get(name)
		if len(v) == 0 {
			out.fail("per-layer %s: no samples", name)
			return
		}
		out.metrics[name] = metric{median(v), unit}
	}
	p50 := func(name, sample, unit string) {
		v, err := percentile(tr.get(sample), 50)
		if err != nil {
			out.fail("per-layer %s: %v", name, err)
			return
		}
		out.metrics[name] = metric{v, unit}
	}
	single("workload.materialize_s", "s")
	single("workload.walker_minstr_per_s", "Minstr/s")
	single("trace.encode_minstr_per_s", "Minstr/s")
	single("trace.decode_minstr_per_s", "Minstr/s")
	p50("trace.store_put_p50_ms", "trace.store_put_ms", "ms")
	p50("cpu.new_p50_us", "cpu.new_us", "us")
	single("cpu.new_alloc_kb", "KB")
	single("cpu.warmup_minstr_per_s", "Minstr/s")
	single("cpu.measure_minstr_per_s", "Minstr/s")
	for _, c := range sweepConfigNames {
		single("cpu.minstr_per_s."+c, "Minstr/s")
	}
	single("cache.icache_demand_ns", "ns")
	single("cache.timing_access_ns", "ns")
	single("bpred.process_ns", "ns")
	single("core.on_access_ns", "ns")
	p50("harness.cell_p50_ms", "harness.cell_ms", "ms")
	p50("harness.small_cell_p50_ms", "harness.small_cell_ms", "ms")
	p50("harness.checkpoint_save_p50_ms", "harness.checkpoint_save_ms", "ms")
	p50("server.submit_p50_ms", "server.submit_ms", "ms")
	p50("server.events_p50_ms", "server.events_ms", "ms")
	p50("server.result_p50_ms", "server.result_ms", "ms")
	p50("server.upload_p50_ms", "server.upload_ms", "ms")
	single("server.trace_hit_ratio", "ratio")
	single("server.cell_cache_hit_ratio", "ratio")
	single("server.cells_simulated", "count")
	single("client.retries", "count")
	p50("fleet.worker_cell_p50_ms", "fleet.worker_cell_ms", "ms")
	single("fleet.wire_decode_us", "us")
	single("fleet.failovers", "count")
}

// runProbes times the component layers directly.
func runProbes(ctx context.Context, o runOpts, tr *tracer) error {
	specs := map[string]workload.Spec{}
	for _, s := range workload.CVPSuite(2) {
		specs[s.Name] = s
	}
	srv, crypto := specs["srv-00"], specs["crypto-00"]
	cfgs, err := configsByName(sweepConfigNames)
	if err != nil {
		return err
	}
	n := uint64(sweepWarmup + sweepMeasure)

	// workload: the walker alone, then whole materialisations.
	prog, err := workload.BuildProgram(srv.Params)
	if err != nil {
		return err
	}
	w := workload.NewWalker(prog)
	var in trace.Instruction
	const walkN = 2_000_000
	t := time.Now()
	for i := 0; i < walkN; i++ {
		if !w.Next(&in) {
			return fmt.Errorf("walker ended after %d instructions", i)
		}
	}
	tr.add("workload.walker_minstr_per_s", walkN/time.Since(t).Seconds()/1e6)
	srvTrace, err := workload.Materialize(srv, n)
	if err != nil {
		return err
	}
	cryptoTrace, err := workload.Materialize(crypto, n)
	if err != nil {
		return err
	}

	// trace: codec both ways, then the store.
	const codecN = 1_000_000
	t = time.Now()
	body, err := encodeTrace(srvTrace.Instrs[:codecN])
	if err != nil {
		return err
	}
	tr.add("trace.encode_minstr_per_s", codecN/time.Since(t).Seconds()/1e6)
	t = time.Now()
	rd, err := trace.NewReaderLimited(bytes.NewReader(body), trace.Limits{})
	if err != nil {
		return err
	}
	decoded := 0
	for rd.Next(&in) {
		decoded++
	}
	if rd.Err() != nil || decoded != codecN {
		return fmt.Errorf("decoded %d of %d instructions: %v", decoded, codecN, rd.Err())
	}
	tr.add("trace.decode_minstr_per_s", codecN/time.Since(t).Seconds()/1e6)
	st, err := trace.OpenStore(filepath.Join(o.dir, "probe-traces"))
	if err != nil {
		return err
	}
	lim := workload.DefaultBudget().DecodeLimits(128 << 20)
	for k := 0; k < 24; k++ {
		b, err := encodeTrace(srvTrace.Instrs[k*uploadInstrs : (k+1)*uploadInstrs])
		if err != nil {
			return err
		}
		t := time.Now()
		if _, dup, err := st.Put(bytes.NewReader(b), "", lim); err != nil || dup {
			return fmt.Errorf("store put %d: deduped %v, %v", k, dup, err)
		}
		tr.since("trace.store_put_ms", t)
	}

	// cpu: construction per configuration, the two windows, and whole
	// cells per configuration on a srv and a crypto trace.
	mcs := make([]cpu.Config, len(cfgs))
	for i, c := range cfgs {
		if mcs[i], err = machineConfig(c); err != nil {
			return err
		}
		const reps = 6
		a0 := totalAlloc()
		for r := 0; r < reps; r++ {
			t := time.Now()
			machineSink = cpu.New(mcs[i])
			tr.add("cpu.new_us", float64(time.Since(t).Nanoseconds())/1e3)
		}
		tr.add("cpu.new_alloc_kb", float64(totalAlloc()-a0)/1e3/reps)
	}
	machineSink = nil
	ent := mcs[indexOf(sweepConfigNames, "entangling-4k")]
	for r := 0; r < 3; r++ {
		m := cpu.New(ent)
		src := srvTrace.Source()
		t := time.Now()
		if err := m.WarmupCtx(ctx, src, sweepWarmup); err != nil {
			return err
		}
		tr.add("cpu.warmup_minstr_per_s", sweepWarmup/time.Since(t).Seconds()/1e6)
		t = time.Now()
		if _, err := m.MeasureCtx(ctx, src, sweepMeasure); err != nil {
			return err
		}
		tr.add("cpu.measure_minstr_per_s", sweepMeasure/time.Since(t).Seconds()/1e6)
	}
	for i, c := range cfgs {
		var el time.Duration
		for _, tc := range []*workload.Trace{srvTrace, cryptoTrace} {
			m := cpu.New(mcs[i])
			t := time.Now()
			if _, err := m.RunWindowsCtx(ctx, tc.Source(), sweepWarmup, sweepMeasure); err != nil {
				return err
			}
			el += time.Since(t)
		}
		tr.add("cpu.minstr_per_s."+c.Name, 2*float64(n)/el.Seconds()/1e6)
	}

	// cache, bpred and core on the srv trace's L1I demand stream and
	// branches.
	rec := &accessRecorder{limit: 400_000}
	mc := cpu.DefaultConfig()
	mc.ExtraL1IListener = rec
	cpu.New(mc).Run(srvTrace.Source(), n)
	dc := cpu.DefaultConfig()
	hierarchy := func() *cache.TimingCache {
		return cache.NewTimingCache(dc.L2, cache.NewTimingCache(dc.LLC, cache.NewDRAM(dc.DRAM)))
	}
	ic := cache.NewICache(dc.L1I, hierarchy(), nil)
	t = time.Now()
	for _, e := range rec.events {
		ic.DemandAccess(e.Cycle, e.LineAddr)
	}
	tr.add("cache.icache_demand_ns", perCall(time.Since(t), len(rec.events)))
	l2 := hierarchy()
	t = time.Now()
	for _, e := range rec.events {
		l2.Access(e.Cycle, e.LineAddr, false)
	}
	tr.add("cache.timing_access_ns", perCall(time.Since(t), len(rec.events)))
	e4k := core.New(core.Config4K(core.Virtual), acceptAll{})
	t = time.Now()
	for _, e := range rec.events {
		e4k.OnAccess(e)
	}
	tr.add("core.on_access_ns", perCall(time.Since(t), len(rec.events)))
	var branches []trace.Instruction
	for _, in := range srvTrace.Instrs {
		if in.Branch.IsBranch() {
			branches = append(branches, in)
		}
	}
	pred := bpred.New(bpred.DefaultConfig())
	t = time.Now()
	for i := range branches {
		pred.Process(&branches[i])
	}
	tr.add("bpred.process_ns", perCall(time.Since(t), len(branches)))

	// harness: one-cell sweeps at the serve window with a fresh trace
	// cache each, as the job server runs a cold cell.
	pool := servePool()
	for k := 0; k < 24; k++ {
		spec, cfg := pool[k%len(pool)], cfgs[k%len(cfgs)]
		t := time.Now()
		if _, err := harness.RunSuiteCtx(ctx, []workload.Spec{spec}, []harness.Configuration{cfg},
			harness.Options{Warmup: serveWarmup, Measure: serveMeasure, Parallelism: 1}); err != nil {
			return err
		}
		tr.since("harness.small_cell_ms", t)
	}
	return nil
}

// machineSink keeps timed constructions from being optimised away.
var machineSink *cpu.Machine

// machineConfig builds the machine a configuration runs on, as the
// harness assembles it for a virtual-address configuration.
func machineConfig(c harness.Configuration) (cpu.Config, error) {
	mc := cpu.DefaultConfig()
	if c.Physical {
		return mc, fmt.Errorf("%s: physical-address configurations are not probed", c.Name)
	}
	mc.L1I.Ideal = c.IdealL1I
	if c.L1IWays > 0 {
		mc.L1I.Ways = c.L1IWays
	}
	if c.Prefetcher != "" && c.Prefetcher != "no" {
		name := c.Prefetcher
		if _, err := prefetch.New(name, acceptAll{}); err != nil {
			return mc, err
		}
		mc.Prefetcher = func(is prefetch.Issuer) prefetch.Prefetcher {
			p, _ := prefetch.New(name, is) // validated above
			return p
		}
	}
	return mc, nil
}

// acceptAll is a prefetch issuer that takes every request.
type acceptAll struct{}

func (acceptAll) Prefetch(uint64, uint64, uint64) bool { return true }

// accessRecorder keeps the first limit L1I demand accesses of a run.
type accessRecorder struct {
	limit  int
	events []cache.AccessEvent
}

func (r *accessRecorder) OnAccess(e cache.AccessEvent) {
	if len(r.events) < r.limit {
		r.events = append(r.events, e)
	}
}
func (r *accessRecorder) OnFill(cache.FillEvent)   {}
func (r *accessRecorder) OnEvict(cache.EvictEvent) {}

func perCall(d time.Duration, calls int) float64 {
	return float64(d.Nanoseconds()) / float64(max(calls, 1))
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// wireTap records the fleet's cell messages and times the worker's
// handling of each.
type wireTap struct {
	tr  *tracer
	mu  sync.Mutex
	asg [][]byte
	res [][]byte
}

// wrap times the worker's handling of each cell message and keeps the
// first messages for the decode probe. A nil tap, or one without a
// tracer, leaves h as it is.
func (t *wireTap) wrap(h http.Handler) http.Handler {
	if t == nil || t.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != fleet.CellsPath {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.tr.since("fleet.worker_cell_ms", start)
		if cw.status == http.StatusOK {
			t.mu.Lock()
			if len(t.asg) < 256 {
				t.asg = append(t.asg, body)
				t.res = append(t.res, cw.buf.Bytes())
			}
			t.mu.Unlock()
		}
	})
}

// decodeProbe times DecodeAssignment + DecodeResult over the recorded
// messages, in microseconds per pair.
func (t *wireTap) decodeProbe() error {
	t.mu.Lock()
	asg, res := t.asg, t.res
	t.mu.Unlock()
	if len(asg) == 0 {
		return fmt.Errorf("no fleet messages recorded")
	}
	for i := range asg {
		if _, err := fleet.DecodeAssignment(asg[i]); err != nil {
			return err
		}
		if _, err := fleet.DecodeResult(res[i]); err != nil {
			return err
		}
	}
	reps := 0
	start := time.Now()
	for ; reps < 3 || time.Since(start) < 50*time.Millisecond; reps++ {
		for i := range asg {
			fleet.DecodeAssignment(asg[i])
			fleet.DecodeResult(res[i])
		}
	}
	t.tr.add("fleet.wire_decode_us", float64(time.Since(start).Nanoseconds())/1e3/float64(reps*len(asg)))
	return nil
}

type captureWriter struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}
