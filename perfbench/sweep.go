package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"entangling/internal/harness"
	"entangling/internal/workload"
)

// The sweep workload is the batch use of the simulator: one cold pass
// of harness.RunSuiteCtx over seven configurations x CVPSuite(2), at
// parallelism nproc, over traces pinned in set-up. The srv workloads'
// large code footprints sit beside the crypto workloads' small ones, so
// each prefetcher's cost shows where it is paid. Each round then
// answers the same cells from a checkpoint store, the way a resumed
// sweep does: that is the sweep's hit path.

// sweepConfigNames are the sweep's configurations, resolved by name
// through harness.KnownConfigurations.
var sweepConfigNames = []string{"no", "nextline", "mana-4k", "djolt", "entangling-2k", "entangling-4k", "ideal"}

const (
	sweepWarmup  = 1_000_000
	sweepMeasure = 500_000
	// sweepSetups is how many times set-up is repeated; setup_s is
	// the median.
	sweepSetups = 3
	// sweepMinRounds gives the cell latencies at least ten samples
	// beyond their p90 (2 x 56 cells).
	sweepMinRounds = 2
	// sweepSampled is how many cells each run recomputes through the
	// walker-driven harness.Run.
	sweepSampled = 2
)

// configsByName resolves configuration names against the registry the
// job server uses.
func configsByName(names []string) ([]harness.Configuration, error) {
	known := make(map[string]harness.Configuration)
	for _, c := range harness.KnownConfigurations() {
		known[c.Name] = c
	}
	out := make([]harness.Configuration, 0, len(names))
	for _, n := range names {
		c, ok := known[n]
		if !ok {
			return nil, fmt.Errorf("unknown configuration %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// pinTraces materialises and pins every spec's trace in a new cache.
func pinTraces(specs []workload.Spec, n uint64) (*workload.TraceCache, time.Duration, error) {
	runtime.GC()
	cache := workload.NewTraceCache()
	start := time.Now()
	for _, s := range specs {
		if _, err := cache.Pin(s, n); err != nil {
			return nil, 0, fmt.Errorf("pinning %s: %w", s.Name, err)
		}
	}
	return cache, time.Since(start), nil
}

func runSweep(ctx context.Context, o runOpts) *outcome {
	out := &outcome{metrics: map[string]metric{}}
	cfgs, err := configsByName(sweepConfigNames)
	if err != nil {
		out.fail("%v", err)
		return out
	}
	specs := workload.CVPSuite(2)
	cells := len(cfgs) * len(specs)
	instrs := float64(cells) * (sweepWarmup + sweepMeasure)

	var setups []float64
	var cache *workload.TraceCache
	for i := 0; i < sweepSetups; i++ {
		cache = nil // drop the previous set-up's traces before the next
		c, d, err := pinTraces(specs, sweepWarmup+sweepMeasure)
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		cache = c
		setups = append(setups, d.Seconds())
		o.tr.add("workload.materialize_s", d.Seconds())
	}

	var (
		coldMS, hitMS      []float64
		simRates, jobRates []float64
		allocMB            []float64
		first              *harness.SuiteResults
		firstSHA           string
	)
	start := time.Now()
	for round := 0; round < sweepMinRounds || time.Since(start) < o.seconds; round++ {
		a0 := totalAlloc()
		res, durs, elapsed, err := coldPass(ctx, specs, cfgs, cache)
		out.attempted += cells
		if err != nil {
			out.failed += cells - countRuns(res)
			out.fail("round %d cold pass: %v", round, err)
			break
		}
		coldMS = append(coldMS, durs...)
		for _, d := range durs {
			o.tr.add("harness.cell_ms", d)
		}
		simRates = append(simRates, instrs/elapsed.Seconds()/1e6)
		jobRates = append(jobRates, float64(cells)/elapsed.Seconds())

		export, err := metricsExport(res)
		if err != nil {
			out.fail("round %d: %v", round, err)
			break
		}
		if first == nil {
			first, firstSHA = res, sha256Hex(export)
		} else if sha := sha256Hex(export); sha != firstSHA {
			out.fail("round %d metrics_sha256 %s differs from round 0's %s", round, sha, firstSHA)
		}

		out.attempted += cells
		restored, gaps, err := resumePass(ctx, specs, cfgs, cache, res, filepath.Join(o.dir, fmt.Sprintf("sweep-round-%d", round)), o.tr)
		if err != nil {
			out.failed += cells
			out.fail("round %d resume pass: %v", round, err)
			break
		}
		hitMS = append(hitMS, gaps...)
		if b, err := metricsExport(restored); err != nil || sha256Hex(b) != firstSHA {
			out.fail("round %d: restored cells do not export the simulated cells' metrics (%v)", round, err)
		}
		allocMB = append(allocMB, float64(totalAlloc()-a0)/1e6)
	}
	if first == nil {
		return out
	}
	rss, rssErr := peakRSSMB()

	if err := checkCellIdentities(first.Metrics(), sweepMeasure); err != nil {
		out.fail("sweep identities: %v", err)
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	for _, idx := range rng.Perm(cells)[:sweepSampled] {
		c, s := cfgs[idx%len(cfgs)], specs[idx/len(cfgs)]
		got, err := harness.Run(c, s, sweepWarmup, sweepMeasure, nil, nil)
		if err != nil {
			out.fail("recomputing %s/%s: %v", c.Name, s.Name, err)
			continue
		}
		if want := first.Runs[c.Name][s.Name]; !reflect.DeepEqual(got, want) {
			out.fail("%s/%s: walker-driven harness.Run differs from the sweep's cell", c.Name, s.Name)
		}
	}

	out.notes = append(out.notes,
		fmt.Sprintf("sweep: metrics_sha256=%s cells=%d rounds=%d", firstSHA, cells, len(simRates)),
		paperLine(first, "entangling-4k"))
	out.metrics["setup_s"] = metric{median(setups), "s"}
	out.metrics["sim_minstr_per_s"] = metric{median(simRates), "Minstr/s"}
	out.metrics["jobs_per_s"] = metric{median(jobRates), "1/s"}
	out.setTail("cold_job", coldMS)
	out.setTail("hit_job", hitMS)
	out.metrics["alloc_mb"] = metric{median(allocMB), "MB"}
	if rssErr != nil {
		out.fail("peak RSS: %v", rssErr)
	} else {
		out.metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	return out
}

// coldPass runs every cell once and returns each finished cell's
// duration in milliseconds.
func coldPass(ctx context.Context, specs []workload.Spec, cfgs []harness.Configuration, cache *workload.TraceCache) (*harness.SuiteResults, []float64, time.Duration, error) {
	var mu sync.Mutex
	var durs []float64
	opt := harness.Options{
		Warmup: sweepWarmup, Measure: sweepMeasure, Parallelism: runtime.NumCPU(), Traces: cache,
		Progress: func(ev harness.CellEvent) {
			if ev.Type == harness.CellFinished {
				mu.Lock()
				durs = append(durs, ms(ev.Duration))
				mu.Unlock()
			}
		},
	}
	runtime.GC()
	start := time.Now()
	res, err := harness.RunSuiteCtx(ctx, specs, cfgs, opt)
	return res, durs, time.Since(start), err
}

// resumePass saves every cell of res into a new checkpoint store in dir
// and resumes the sweep from it. It returns the restored sweep and the
// time each restored cell took, measured between successive restored
// events (the harness restores cells one after another before it
// schedules any work).
func resumePass(ctx context.Context, specs []workload.Spec, cfgs []harness.Configuration, cache *workload.TraceCache, res *harness.SuiteResults, dir string, tr *tracer) (*harness.SuiteResults, []float64, error) {
	store, err := harness.OpenCheckpointStore(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range specs {
		for _, c := range cfgs {
			rec := harness.CellRecord{
				SchemaVersion: harness.CheckpointSchemaVersion,
				Fingerprint:   harness.CellFingerprint(c, s, sweepWarmup, sweepMeasure),
				Config:        c.Name, Workload: s.Name, Result: res.Runs[c.Name][s.Name],
			}
			t := time.Now()
			if err := store.Save(rec); err != nil {
				return nil, nil, err
			}
			tr.since("harness.checkpoint_save_ms", t)
		}
	}
	var gaps []float64
	var last time.Time
	opt := harness.Options{
		Warmup: sweepWarmup, Measure: sweepMeasure, Parallelism: runtime.NumCPU(), Traces: cache,
		Checkpoint: store, Resume: true,
		Progress: func(ev harness.CellEvent) {
			if ev.Type == harness.CellRestored {
				now := time.Now()
				gaps = append(gaps, ms(now.Sub(last)))
				last = now
			}
		},
	}
	runtime.GC()
	last = time.Now()
	restored, err := harness.RunSuiteCtx(ctx, specs, cfgs, opt)
	if err != nil {
		return nil, nil, err
	}
	if want := len(specs) * len(cfgs); restored.Restored != want || len(gaps) != want {
		return nil, nil, fmt.Errorf("restored %d cells (%d events), want %d", restored.Restored, len(gaps), want)
	}
	return restored, gaps, nil
}

func countRuns(s *harness.SuiteResults) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, perWl := range s.Runs {
		n += len(perWl)
	}
	return n
}

// paperLine sets the sweep's simulated result for one configuration
// beside the paper's (Entangling 4K: +9.6% speedup, 88.2% coverage,
// 71.5% accuracy).
func paperLine(s *harness.SuiteResults, cfg string) string {
	return fmt.Sprintf("simulated %s: geomean speedup %+.1f%%, mean coverage %.1f%%, mean accuracy %.1f%% (paper 4K: +9.6%%, 88.2%%, 71.5%%)",
		cfg, (s.GeomeanSpeedup(cfg)-1)*100, meanFinite(s.Coverage(cfg))*100, meanFinite(s.Accuracy(cfg))*100)
}

func meanFinite(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
