// Command perfbench is the repository's benchmark: it runs one of three
// workloads (a batch sweep, a small-cell job service, and the same
// service traffic through a fleet), checks every output, and prints one
// JSON result line. With -trace 1 it prints per-layer figures instead,
// timed around the public calls into each package. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the inputs every workload takes.
type runOpts struct {
	seed uint64
	// seconds is how long the run keeps starting rounds; every
	// workload also makes the fewest rounds its percentiles need, so
	// zero gives a run of just those.
	seconds time.Duration
	// dir is scratch space inside the checkout, removed at exit.
	dir string
	// tr collects per-layer samples; nil in an untraced run.
	tr *tracer
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	// errs are failed operations and failed checks, in order.
	errs    []string
	metrics map[string]metric
	// notes are informational lines printed before the result.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, runOpts) *outcome{
	"sweep":       runSweep,
	"serve-mix":   func(ctx context.Context, o runOpts) *outcome { return runServe(ctx, o, false) },
	"serve-fleet": func(ctx context.Context, o runOpts) *outcome { return runServe(ctx, o, true) },
}

func main() {
	var (
		name    = flag.String("workload", "", "sweep, serve-mix or serve-fleet")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "how long the timed phase runs (whole rounds)")
		traced  = flag.Int("trace", 0, "1 prints per-layer figures instead of end-to-end ones")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|serve-mix|serve-fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := benchmark(*name, run, runOpts{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir,
	}, *traced == 1)
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmark runs the workload, prints its lines and the result, and
// returns the exit code.
func benchmark(name string, run func(context.Context, runOpts) *outcome, o runOpts, traced bool) int {
	fmt.Println(hostLine())
	ctx := context.Background()
	var out *outcome
	if traced {
		out = tracedRun(ctx, name, o)
	} else {
		out = run(ctx, o)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("accounting: workload=%s attempted=%d failed=%d\n", name, out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	res := result{
		Correct:   len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
		return 1
	}
	return 0
}

// hostLine describes the machine the figures were measured on.
func hostLine() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// peakRSSMB reads the process high-water mark (VmHWM) in MB (10^6
// bytes, like alloc_mb).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// tracer collects per-layer samples from hooks and probes. A nil
// tracer ignores everything, so untraced runs pay one nil check.
type tracer struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newTracer() *tracer { return &tracer{samples: make(map[string][]float64)} }

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// since records the time since start in milliseconds.
func (t *tracer) since(name string, start time.Time) {
	if t != nil {
		t.add(name, ms(time.Since(start)))
	}
}

func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setTail records the p50 and p90 of samples as name_p50_ms and
// name_p90_ms, or a failure when there are too few for either.
func (o *outcome) setTail(name string, samples []float64) {
	for _, p := range []float64{50, 90} {
		v, err := percentile(samples, p)
		if err != nil {
			o.fail("%s: %v", name, err)
			continue
		}
		o.metrics[fmt.Sprintf("%s_p%g_ms", name, p)] = metric{v, "ms"}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
