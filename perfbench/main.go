// Command perfbench is THALIA's own performance benchmark. It runs one of
// three workloads for a fixed time, checks every output it times, and
// prints the workload's metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload testbed-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with no
// instrumentation in the path; with --trace 1 it carries the per-layer
// metrics of a traced run, whose spans are written under --out. See
// README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0. Each
// has one meaning on every workload; README.md gives the per-workload
// reading of op and aux.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"catalog.render_ms", "ms"},
	{"tess.extract_ms", "ms"},
	{"xsd.infer_ms", "ms"},
	{"benchmark.expected_us", "us"},
	{"benchmark.runner_self_us", "us"},
	{"benchmark.worker_busy_ratio", "ratio"},
	{"integration.match_us", "us"},
	{"integration.cache_hit_us", "us"},
	{"cohera.build_us", "us"},
	{"cohera.answer_us", "us"},
	{"iwiz.first_answer_us", "us"},
	{"iwiz.answer_us", "us"},
	{"ufmw.answer_us", "us"},
	{"rewrite.answer_us", "us"},
	{"plan.compile_us", "us"},
	{"plan.eval_us", "us"},
	{"plan.cache_hit_ratio", "ratio"},
	{"scenario.render_us", "us"},
	{"scenario.truth_us", "us"},
	{"scenario.spec_us", "us"},
	{"scenario.answer_us", "us"},
	{"docsource.builds_per_source", "ratio"},
	{"docsource.high_water", "count"},
	{"runtime.alloc_bytes_per_cell", "B"},
	{"runtime.gc_cycles_per_pass", "count"},
	{"runtime.goroutines_peak", "count"},
	{"website.read_handler_us", "us"},
	{"website.zip_ms", "ms"},
	{"website.post_runs_us", "us"},
	{"website.queue_wait_ms", "ms"},
	{"website.retained_runs", "count"},
	{"website.sustained_rps", "1/s"},
	{"generator.lag_ms", "ms"},
	{"journal.events_per_run", "count"},
	{"journal.bytes_per_run", "B"},
	{"trace.overhead_ms", "ms"},
	{"trace.residual_us", "us"},
}

// workloads maps each workload name to its runner and its set-up (what a
// fresh process pays before the first operation).
var workloads = map[string]struct {
	run   func(o *options) (*report, error)
	setup func(o *options) error
}{
	"testbed-cold":    {runTestbed, setupTestbed},
	"scenario-stream": {runScenario, setupScenario},
	"site-mixed":      {runSite, setupSite},
}

// options are the benchmark's arguments. The program under test receives
// only inputs generated from them.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	pool     int     // worker-pool size: one per CPU
	sources  int     // scenario-stream: generated sources (tests shrink it)
	mix      string  // scenario-stream: heterogeneity mix
	rate     float64 // site-mixed: reference rate, requests/s (tests lower it)
	outDir   string
	tmpDir   string
	steal    *stealMonitor // nil keeps every sample
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	checks            []string           // failed correctness checks, one line each
	e2e               map[string]float64 // end-to-end metrics (untraced)
	layers            map[string]float64 // per-layer metrics (traced runs)
	notes             []string           // human-readable detail lines
	spans             []span
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	o := &options{pool: runtime.NumCPU(), sources: scenarioSources, rate: referenceRate}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "testbed-cold | scenario-stream | site-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.mix, "mix", "uniform", "scenario-stream: heterogeneity mix (scenario.ParseMix grammar)")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory for result, trace and profile files")
	profile := fs.Bool("profile", false, "write a CPU and a heap profile of the measured window under -out")
	probe := fs.Bool("setup-probe", false, "run the workload's set-up only and exit (used to time set-up in fresh processes)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", o.workload)
		os.Exit(2)
	}
	o.duration = time.Duration(*seconds * float64(time.Second))
	o.trace = *traceFlag == 1
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o.tmpDir = filepath.Join(cwd, ".bench_build", "tmp")
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fatal(err)
	}
	if *probe {
		if err := w.setup(o); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	o.steal = startStealMonitor()
	var setupS float64
	if !o.trace { // a traced run reports per-layer metrics only
		if setupS, err = measureSetup(o, setupProbes); err != nil {
			fatal(err)
		}
	}

	var stopProfile func() error
	if *profile {
		if stopProfile, err = startProfile(filepath.Join(o.outDir, o.workload)); err != nil {
			fatal(err)
		}
	}
	rep, err := w.run(o)
	if err != nil {
		fatal(err)
	}
	o.steal.halt()
	rep.note("the hypervisor stole %.1f%% of the CPU time over the run", 100*o.steal.stolenShare())
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fatal(err)
		}
	}
	rep.e2e["setup_s"] = setupS
	if err := emit(os.Stdout, o, rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupProbes is how many fresh processes set-up time is the median of.
const setupProbes = 5

// measureSetup times the workload's set-up in fresh processes of this
// binary and returns the median wall time in seconds, over n processes
// that ran with at most maxSteal of the CPU stolen (up to 3n tries; past
// that, over every try). A fresh process is the only honest way to repeat
// set-up: the testbed is materialized once per process.
func measureSetup(o *options, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-probe", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-mix", o.mix}
	var probes []sample
	for len(probes) < 3*n {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		probes = append(probes, sample{start, time.Now()})
		if len(probes) >= n {
			time.Sleep(stealPad + stealEvery) // let the monitor sample past the last probe
			if kept, _ := o.steal.split(probes); len(kept) >= n {
				return median(kept) / 1000, nil
			}
		}
	}
	_, all := o.steal.split(probes)
	return median(all) / 1000, nil
}

// startProfile starts a CPU profile at prefix.cpu.pprof; the returned stop
// function ends it and writes a heap profile to prefix.heap.pprof.
func startProfile(prefix string) (func() error, error) {
	f, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		h, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(h); err != nil {
			h.Close()
			return err
		}
		return h.Close()
	}, nil
}

// env records what a result must be compared like with like on.
func env(o *options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.duration.Seconds(),
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"pool":       o.pool,
		"go":         runtime.Version(),
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable report, writes the result (and the trace)
// under o.outDir, and prints the JSON result line last.
func emit(w io.Writer, o *options, rep *report) error {
	e := env(o)
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "perfbench")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, e[k])
	}
	fmt.Fprintln(w)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	defs, vals := endToEnd, rep.e2e
	if o.trace {
		defs, vals = perLayer, rep.layers
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.6g (%d failed of %d attempted)\n", "error_ratio", ratio, rep.failed, rep.attempted)
	for _, c := range rep.checks {
		fmt.Fprintln(w, "  FAILED: "+c)
	}
	res.Correct = rep.failed == 0 && rep.attempted > 0

	traced := 0
	if o.trace {
		traced = 1
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, traced))
	full, err := json.MarshalIndent(map[string]any{"env": e, "result": res, "error_ratio": ratio, "notes": rep.notes, "failed_checks": rep.checks}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", full, 0o644); err != nil {
		return err
	}
	if o.trace {
		if err := writeTrace(base+".spans.json", e, rep.spans); err != nil {
			return err
		}
		for _, lt := range layerTimes(rep.spans) {
			fmt.Fprintf(w, "  layer %-22s spans=%-8d total=%.0fus self=%.0fus\n", lt.Layer, lt.Spans, lt.TotalUS, lt.SelfUS)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// sampler polls the runtime while a workload is measured: the live heap
// as of each completed GC cycle, and the peak goroutine count.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	live       []float64 // bytes, one per GC cycle seen; read after done
	goroutines atomic.Int64
}

const sampleEvery = 2 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var lastCycle uint64
	poll := func() {
		metrics.Read(sample)
		if c := sample[0].Value.Uint64(); c != lastCycle {
			lastCycle = c
			s.live = append(s.live, float64(sample[1].Value.Uint64()))
		}
		if g := int64(runtime.NumGoroutine()); g > s.goroutines.Load() {
			s.goroutines.Store(g)
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			poll()
			select {
			case <-s.stop:
				poll()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// halt stops the sampler, waits for it, and returns the peak live heap in
// MB, taken as the p90 of the per-cycle live heap: the
// largest cycles depend on where a collection happened to land among the
// operations in flight. It also returns the peak goroutine count.
func (s *sampler) halt() (heapMB float64, goroutines int64) {
	close(s.stop)
	<-s.done
	return summarize(s.live).P90 / 1e6, s.goroutines.Load()
}

// memDelta measures allocation and GC cycles across fn.
func memDelta(fn func()) (allocBytes uint64, gcCycles uint32) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC
}
