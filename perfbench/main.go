// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each invocation runs one workload in its own process from
// one goroutine (or one client connection), measures it for a fixed
// number of seconds, checks every operation's output, and prints one
// JSON result object as the last line of standard output.
//
// It measures each layer from outside, by timing calls into public
// functions and seams (dtnsim.Run, contact.Source.Next, core.Observer,
// server.New over HTTP, dist.Options.Dial/Redial); it changes no
// program code. README.md records each workload's input size, why it
// was chosen, and which layers it stresses or bypasses.
//
// Run it through run.py, which builds this program and the dist worker
// from source first:
//
//	python3 perfbench/run.py --workload rwp-5k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what every workload receives.
type env struct {
	seed      uint64
	seconds   float64
	trace     bool
	workDir   string // scratch space inside the checkout, removed at exit
	traceDir  string // where the traced run writes its spans
	workerBin string
	name      string
}

// outcome is what every workload returns: its end-to-end metrics (from
// the untraced run) or its per-layer metrics (from the traced run), and
// its operation counts.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	// failures holds a short description of the first few failed
	// checks, printed to standard error.
	failures []string
	// setup builds and tears down one fresh instance of what the
	// workload measures, returning how long building it took; setups
	// holds the times in seconds.
	setup  func() (time.Duration, error)
	setups []float64
	// rss holds the measurement windows' resident-set peaks in MB, by
	// input cell: the 5k workloads cycle through several mobility seeds
	// whose floods need different memory, the others have one cell.
	rss [][]float64
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check records one checked operation; ok=false counts it failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records one failed operation that was already counted attempted.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(env) (*outcome, error){
	"paper-sweep":   runPaperSweep,
	"rwp-5k":        runRWP5k,
	"daemon-cold":   runDaemonCold,
	"daemon-cached": runDaemonCached,
	"dist-5k":       runDist5k,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "how long the timed loop measures")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		buildDir  = flag.String("build-dir", ".bench_build", "directory for scratch files and traces")
		workerBin = flag.String("worker-bin", "", "dtnsim-worker binary (dist-5k)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	abs, err := filepath.Abs(*buildDir)
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(abs, "work-")
	if err != nil {
		fatal(err)
	}
	e := env{
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		workDir:   work,
		traceDir:  filepath.Join(abs, "traces"),
		workerBin: *workerBin,
		name:      *workload,
	}
	out, err := run(e)
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fatal(err)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	printSummary(e.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printSummary writes the human-readable table to standard error, with
// failed_frac alongside the metrics: the JSON line carries it as the
// failed and attempted counts.
func printSummary(name string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d failed_frac=%g\n",
		name, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// --- measurement helpers ---------------------------------------------------

// splitmix derives independent sub-seeds from the run seed, so every
// input of a run is a pure function of --seed.
func splitmix(seed, k uint64) uint64 {
	x := seed + (k+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Set-up timing. setup_s is the median of many fresh set-ups: a set-up
// of a millisecond or less is dominated by scheduler, file-system and
// page-cache noise, and that noise drifts while a run lasts. So a run
// times setupsFirst set-ups before its first operation and
// setupsPerWindow more at the start of every measurement window.
const (
	setupsFirst     = 20
	setupsPerWindow = 10
)

// takeSetups times n fresh set-ups. Each call of o.setup builds and
// tears down one complete instance and returns how long its set-up took.
func (o *outcome) takeSetups(n int) error {
	for i := 0; i < n; i++ {
		d, err := o.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, d.Seconds())
	}
	return nil
}

// loop runs op until the timed budget is spent and returns the
// per-operation latencies and the total time spent inside op. Only the
// time inside op counts: off-clock preparation between operations
// (building the next input) is excluded from both.
func loop(budget float64, op func(i int) (time.Duration, error)) ([]float64, float64, error) {
	var lat []float64
	total := 0.0
	for i := 0; total < budget; i++ {
		d, err := op(i)
		if err != nil {
			return lat, total, err
		}
		lat = append(lat, d.Seconds())
		total += d.Seconds()
	}
	return lat, total, nil
}

// startWindow begins a measurement window, off the clock. It times
// setupsPerWindow set-ups, then collects garbage, returns the freed
// memory to the operating system and resets the kernel's resident-set
// high-water mark, so that the window's peak does not depend on when the
// collector ran in earlier windows.
func (o *outcome) startWindow() error {
	if err := o.takeSetups(setupsPerWindow); err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return nil
}

// endWindow records the resident-set peak of a window on input cell c.
func (o *outcome) endWindow(c int) error {
	mb, err := peakRSSMB()
	for len(o.rss) <= c {
		o.rss = append(o.rss, nil)
	}
	o.rss[c] = append(o.rss[c], mb)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEnd fills the metrics every workload reports from its untraced
// run: the median set-up time, operations per host second, the median
// operation latency, and the windows' resident-set peak (plus
// extraRSSMB, the reaped worker process's peak for dist-5k), averaged
// over each input cell and then across cells, so that every cell weighs
// the same however many windows it got.
func (o *outcome) endToEnd(lat []float64, total, extraRSSMB float64) {
	var cells []float64
	for _, w := range o.rss {
		if len(w) > 0 {
			cells = append(cells, mean(w))
		}
	}
	o.set("setup_s", median(append([]float64(nil), o.setups...)), "s")
	o.set("ops_per_s", float64(len(lat))/total, "1/s")
	o.set("op_p50_ms", median(append([]float64(nil), lat...))*1e3, "ms")
	o.set("peak_rss_mb", mean(cells)+extraRSSMB, "MB")
}

// heapPeak reports go.heap_peak_mb: heap memory obtained from the
// operating system, which the runtime keeps mapped after a peak.
func heapPeak(o *outcome) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.set("go.heap_peak_mb", float64(ms.HeapSys)/(1<<20), "MB")
}

// memDelta brackets a loop with runtime.MemStats reads.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// finish reports go.alloc_mb_per_run (bytes allocated per operation)
// and go.gc_cycles (collections during the loop).
func (m *memDelta) finish(o *outcome, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.set("go.alloc_mb_per_run", float64(after.TotalAlloc-m.before.TotalAlloc)/float64(max(ops, 1))/(1<<20), "MB")
	o.set("go.gc_cycles", float64(after.NumGC-m.before.NumGC), "count")
}
