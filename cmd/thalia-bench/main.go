// Command thalia-bench runs the repo's performance harnesses and gates CI
// on their results.
//
//	thalia-bench engine  [-out BENCH_engine.json] [-runs 3] [-pool N]
//	                     [-profile DIR] [-journal run.jsonl]
//	thalia-bench chaos   [-out BENCH_chaos.json] [-runs 3] [-pool N] [-seed 1]
//	                     [-journal run.jsonl]
//	thalia-bench scale   [-out BENCH_scale.json] [-sources 35,500,5000]
//	                     [-mix uniform] [-seed 42] [-pool N] [-profile DIR]
//	                     [-journal run.jsonl]
//	thalia-bench server  [-out BENCH_server.json] [-clients 8] [-requests 50]
//	thalia-bench plan    [-runs 200]
//	thalia-bench report  [-json] [-require-complete] <journal.jsonl>
//	thalia-bench compare -baseline BENCH_engine.json -fresh fresh.json
//	                     [-tolerance 0.30] [-slowdown 1.0]
//
// engine and chaos optionally flight-record one extra evaluation with
// -journal: an append-only JSONL run journal (internal/journal) that report
// replays into the run summary — CI uploads it and asserts the replay
// reproduces the digest recorded in the journal's run-end event.
//
// engine times benchmark.MeasureEngine (the sequential seed path without the
// shared-prep cache vs the prep-cached sequential and pooled configurations,
// with the four built-in systems answering every query for real, plus the
// xquery_eval interpreter-vs-plan engine rows); -profile writes cpu.pprof
// and heap.pprof for the measurement to DIR, so a red gate in CI is
// diagnosable from the uploaded artifact. chaos times benchmark.MeasureChaos
// (the same evaluation under a seeded standard-mix fault plan with the
// default resilience policy — the cost of retries, backoff, and breaker
// accounting); server drives website.MeasureServer (N concurrent clients
// replaying the catalog/schema/query routes); plan reports per-query ns/op
// for the compiled-plan engine — the default execution path — against the
// reference interpreter (the -engine=interp escape hatch), checking result
// equality as it goes. compare reads two artifacts of the same suite,
// refuses them unless both were measured at the same GOMAXPROCS (the
// committed baselines use 1), and fails (exit 1) if the fresh run regressed
// beyond the tolerance: engine/chaos ns/op per configuration (including the
// plan_cache and xquery_eval rows), the seq→cached speedup ratio and the
// interp→plan xquery_speedup ratio, server p95 per route. -slowdown
// multiplies the fresh numbers first — an injected regression that proves
// the gate actually trips.
//
// scale times scenario.MeasureScale: generated workloads of -sources
// catalogs (comma-separated curve points) with the -mix heterogeneity mix,
// evaluated by the scenario mediator on a streaming runner — documents
// materialize per cell and are released, so memory stays O(pool) while the
// curve's cells/sec rows pin throughput at each size in BENCH_scale.json;
// -profile writes cpu.pprof and heap.pprof for the measurement, as for
// engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/buildinfo"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/journal"
	"thalia/internal/rewrite"
	"thalia/internal/scenario"
	"thalia/internal/telemetry"
	"thalia/internal/ufmw"
	"thalia/internal/website"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thalia-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: engine | chaos | scale | server | plan | report | compare")
	}
	switch args[0] {
	case "engine":
		return engineCmd(args[1:], out)
	case "chaos":
		return chaosCmd(args[1:], out)
	case "scale":
		return scaleCmd(args[1:], out)
	case "server":
		return serverCmd(args[1:], out)
	case "plan":
		return planCmd(args[1:], out)
	case "report":
		return reportCmd(args[1:], out)
	case "compare":
		return compareCmd(args[1:], out)
	case "-version", "--version":
		fmt.Fprintln(out, buildinfo.String("thalia-bench"))
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (engine | chaos | scale | server | plan | report | compare)", args[0])
	}
}

func systems() []integration.System {
	return []integration.System{cohera.New(), iwiz.New(), ufmw.New(), rewrite.NewSystem()}
}

func engineCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	path := fs.String("out", "BENCH_engine.json", "artifact path")
	runs := fs.Int("runs", 3, "EvaluateAll executions per configuration")
	pool := fs.Int("pool", runtime.GOMAXPROCS(0), "parallel pool size to measure")
	profileDir := fs.String("profile", "", "write cpu.pprof and heap.pprof for the measurement to this directory")
	journalPath := fs.String("journal", "", "also flight-record one evaluation to this JSONL journal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pool < 2 {
		*pool = 2
	}
	if *profileDir != "" {
		stop, err := startProfiles(*profileDir)
		if err != nil {
			return err
		}
		defer stop()
	}
	rep, err := benchmark.MeasureEngine(*runs, []int{*pool}, systems()...)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(*path); err != nil {
		return err
	}
	fmt.Fprintf(out, "engine: %d configs, speedup %.2fx, xquery speedup %.2fx, wrote %s\n",
		len(rep.Timings), rep.Speedup, rep.XQuerySpeedup, *path)
	if *journalPath != "" {
		if err := journaledRun(*journalPath, "thalia-bench engine", *pool, 0, false); err != nil {
			return err
		}
		fmt.Fprintf(out, "engine: journaled run written to %s\n", *journalPath)
	}
	return nil
}

// journaledRun executes one flight-recorded evaluation of the built-in
// systems — with the standard chaos mix and resilience policy when chaos is
// set — and writes its journal to path. The journal is the run's durable
// artifact: `thalia-bench report` replays it, and CI asserts the replayed
// digest matches the run-end record.
func journaledRun(path, harness string, pool int, seed int64, chaos bool) error {
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	rec := &journal.Recorder{W: w, RunID: runIDFromPath(path), Harness: harness}
	runner := benchmark.NewRunner()
	runner.Concurrency = pool
	runner.Telemetry = telemetry.NewRegistry()
	runner.Journal = rec
	sys := systems()
	if chaos {
		plan := faultline.StandardMix(seed)
		rec.Seed = seed
		rec.FaultPlanDigest = plan.Digest()
		runner.Resilience = benchmark.DefaultResilience(seed)
		for i, s := range sys {
			sys[i] = faultline.Wrap(s, plan, nil)
		}
	}
	if _, err := runner.EvaluateAll(sys...); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// runIDFromPath derives a run ID from the journal filename.
func runIDFromPath(path string) string {
	base := filepath.Base(path)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	return base
}

// startProfiles begins a CPU profile in dir and returns a stop function
// that finishes it and writes a heap profile alongside (cpu.pprof,
// heap.pprof) — the artifacts CI uploads so a red benchmark gate is
// diagnosable from the run page without a local repro.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "thalia-bench: close cpu profile:", err)
		}
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "thalia-bench: heap profile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			fmt.Fprintln(os.Stderr, "thalia-bench: heap profile:", err)
		}
		// Close explicitly: buffered profile writes surface their errors here.
		if err := heap.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "thalia-bench: close heap profile:", err)
		}
	}, nil
}

func chaosCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	path := fs.String("out", "BENCH_chaos.json", "artifact path")
	runs := fs.Int("runs", 3, "EvaluateAll executions per configuration")
	pool := fs.Int("pool", runtime.GOMAXPROCS(0), "parallel pool size to measure")
	seed := fs.Int64("seed", 1, "fault plan and jitter seed")
	journalPath := fs.String("journal", "", "also flight-record one evaluation to this JSONL journal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pool < 2 {
		*pool = 2
	}
	rep, err := benchmark.MeasureChaos(*runs, []int{*pool}, *seed, systems()...)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(*path); err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: %d configs, speedup %.2fx, wrote %s\n", len(rep.Timings), rep.Speedup, *path)
	if *journalPath != "" {
		if err := journaledRun(*journalPath, "thalia-bench chaos", *pool, *seed, true); err != nil {
			return err
		}
		fmt.Fprintf(out, "chaos: journaled run written to %s\n", *journalPath)
	}
	return nil
}

// scaleCmd measures the scenario scaling curve and writes the
// "benchmark_scale" artifact; -journal additionally flight-records one
// streaming evaluation of the second curve point (500 sources by default)
// for replay verification.
func scaleCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scale", flag.ContinueOnError)
	path := fs.String("out", "BENCH_scale.json", "artifact path")
	sourcesFlag := fs.String("sources", "", "comma-separated curve points (default 35,500,5000)")
	mixFlag := fs.String("mix", "uniform", "heterogeneity mix (e.g. uniform or synonyms:2,nulls)")
	seed := fs.Int64("seed", 42, "workload generation seed")
	pool := fs.Int("pool", runtime.GOMAXPROCS(0), "worker pool size")
	profileDir := fs.String("profile", "", "write cpu.pprof and heap.pprof for the measurement to this directory")
	journalPath := fs.String("journal", "", "also flight-record one evaluation to this JSONL journal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := scenario.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	points, err := parsePoints(*sourcesFlag)
	if err != nil {
		return err
	}
	stop := func() {}
	if *profileDir != "" {
		if stop, err = startProfiles(*profileDir); err != nil {
			return err
		}
	}
	rep, err := scenario.MeasureScale(points, mix, *seed, *pool)
	stop()
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(*path); err != nil {
		return err
	}
	for _, tm := range rep.Timings {
		fmt.Fprintf(out, "scale: %-14s %10.0f cells/sec (%d run(s), %.1f ms/op)\n",
			tm.Name, tm.CellsPerSec, tm.Runs, float64(tm.NsPerOp)/1e6)
	}
	fmt.Fprintf(out, "scale: wrote %s\n", *path)
	if *journalPath != "" {
		n := 500
		if len(points) > 0 {
			n = points[0]
			if len(points) > 1 {
				n = points[1]
			}
		}
		if err := journaledScaleRun(*journalPath, n, mix, *seed, *pool); err != nil {
			return err
		}
		fmt.Fprintf(out, "scale: journaled %d-source run written to %s\n", n, *journalPath)
	}
	return nil
}

// parsePoints parses the -sources list; empty means the default curve.
func parsePoints(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var points []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("scale: bad -sources point %q", part)
		}
		points = append(points, n)
	}
	return points, nil
}

// journaledScaleRun flight-records one streaming scenario evaluation, the
// scale counterpart of journaledRun: same recorder, scenario mediator and
// streaming runner instead of the canonical systems.
func journaledScaleRun(path string, sources int, mix scenario.Mix, seed int64, pool int) error {
	sc, err := scenario.New(scenario.Params{Sources: sources, Seed: seed, Mix: mix})
	if err != nil {
		return err
	}
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	rec := &journal.Recorder{W: w, RunID: runIDFromPath(path), Harness: "thalia-bench scale", Seed: seed}
	runner := benchmark.NewStreamingRunner(sc.Queries())
	runner.Concurrency = pool
	runner.Telemetry = telemetry.NewRegistry()
	runner.Journal = rec
	if _, err := runner.EvaluateAll(sc.NewMediator()); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// reportCmd replays a run journal into its projection and renders the run
// report — human text by default, machine JSON with -json. Replay always
// verifies structural integrity (parseable events, monotonic sequence); a
// complete journal must additionally replay to the exact ranked-scorecard
// digest its run-end event recorded, and -require-complete turns a missing
// run_end (crashed or still-running journal) into a failure too.
func reportCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "render the machine-readable report")
	requireComplete := fs.Bool("require-complete", false, "fail unless the journal has a verified run_end")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("report: usage: thalia-bench report [-json] [-require-complete] <journal.jsonl>")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("report: %s: empty journal", fs.Arg(0))
	}
	p := journal.Replay(events)
	if p.Complete() {
		if err := p.Verify(); err != nil {
			return fmt.Errorf("report: %s: %w", fs.Arg(0), err)
		}
	} else if *requireComplete {
		return fmt.Errorf("report: %s: journal incomplete: no run_end event", fs.Arg(0))
	}
	if *asJSON {
		raw, err := p.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(raw))
		return nil
	}
	fmt.Fprint(out, p.Report())
	return nil
}

func serverCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	path := fs.String("out", "BENCH_server.json", "artifact path")
	clients := fs.Int("clients", 8, "concurrent clients")
	requests := fs.Int("requests", 50, "requests per client")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := website.MeasureServer(*clients, *requests)
	if err != nil {
		return err
	}
	if rep.Non200 > 0 {
		return fmt.Errorf("load harness saw %d non-200 responses", rep.Non200)
	}
	if err := rep.WriteJSON(*path); err != nil {
		return err
	}
	fmt.Fprintf(out, "server: %d requests at %.0f req/s over %d routes, wrote %s\n",
		rep.TotalRequests, rep.ThroughputRPS, len(rep.Routes), *path)
	return nil
}

// planCmd reports per-query compiled-plan vs reference-interpreter timings
// over the benchmark queries, evaluated against the extracted catalogs. The
// compiled plan is the default execution path, so its result is the ground
// truth here too: each query is compiled once through a plan.Cache and
// re-evaluated -runs times — the reuse pattern a real run gives — and the
// interpreter (the -engine=interp escape hatch) is checked against the
// plan's answer before timing, so the report cannot quietly compare
// different answers.
func planCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	runs := fs.Int("runs", 200, "evaluations per engine per query")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		*runs = 1
	}
	resolve := catalog.Resolver()
	plans := plan.NewCache()
	fmt.Fprintf(out, "%-5s %14s %14s %8s\n", "query", "interp ns/op", "plan ns/op", "ratio")
	var totalI, totalP int64
	for _, q := range benchmark.Queries() {
		expr, err := xquery.Parse(q.XQuery)
		if err != nil {
			return fmt.Errorf("q%02d: parse: %w", q.ID, err)
		}
		p, err := plans.Get(q.XQuery)
		if err != nil {
			return fmt.Errorf("q%02d: compile: %w", q.ID, err)
		}
		ctx := xquery.NewContext(resolve)
		got, gerr := p.Eval(ctx)
		want, werr := xquery.Eval(expr, ctx)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			return fmt.Errorf("q%02d: engines disagree: plan %v vs interpreter %v", q.ID, gerr, werr)
		}
		if gerr == nil && xquery.SequenceString(got) != xquery.SequenceString(want) {
			return fmt.Errorf("q%02d: interpreter disagrees with the plan result", q.ID)
		}
		start := time.Now()
		for i := 0; i < *runs; i++ {
			_, _ = xquery.Eval(expr, ctx)
		}
		interp := time.Since(start).Nanoseconds() / int64(*runs)
		start = time.Now()
		for i := 0; i < *runs; i++ {
			_, _ = p.Eval(ctx)
		}
		planNs := time.Since(start).Nanoseconds() / int64(*runs)
		totalI += interp
		totalP += planNs
		ratio := 0.0
		if planNs > 0 {
			ratio = float64(interp) / float64(planNs)
		}
		fmt.Fprintf(out, "q%02d   %14d %14d %7.2fx\n", q.ID, interp, planNs, ratio)
	}
	ratio := 0.0
	if totalP > 0 {
		ratio = float64(totalI) / float64(totalP)
	}
	fmt.Fprintf(out, "total %14d %14d %7.2fx\n", totalI, totalP, ratio)
	return nil
}

// suiteProbe reads the fields every BENCH_*.json suite shares: its
// discriminator and the GOMAXPROCS it was measured at.
type suiteProbe struct {
	Suite      string `json:"suite"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

func compareCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "committed BENCH_*.json")
	freshPath := fs.String("fresh", "", "freshly measured BENCH_*.json")
	tolerance := fs.Float64("tolerance", 0.30, "allowed relative slowdown (0.30 = +30%)")
	slowdown := fs.Float64("slowdown", 1.0, "multiply fresh numbers (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *freshPath == "" {
		return fmt.Errorf("compare: need -baseline and -fresh")
	}
	baseRaw, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	freshRaw, err := os.ReadFile(*freshPath)
	if err != nil {
		return err
	}
	var baseProbe, freshProbe suiteProbe
	if err := json.Unmarshal(baseRaw, &baseProbe); err != nil {
		return fmt.Errorf("%s: %w", *basePath, err)
	}
	if err := json.Unmarshal(freshRaw, &freshProbe); err != nil {
		return fmt.Errorf("%s: %w", *freshPath, err)
	}
	if baseProbe.Suite != freshProbe.Suite {
		return fmt.Errorf("suite mismatch: baseline %q vs fresh %q", baseProbe.Suite, freshProbe.Suite)
	}
	// Pool rows are named par<GOMAXPROCS> and parallel timings scale with
	// it, so runs at different settings do not compare like with like.
	if baseProbe.GoMaxProcs != freshProbe.GoMaxProcs {
		return fmt.Errorf("gomaxprocs mismatch: baseline %d vs fresh %d (measure with GOMAXPROCS=%d)",
			baseProbe.GoMaxProcs, freshProbe.GoMaxProcs, baseProbe.GoMaxProcs)
	}

	var regressions []string
	switch baseProbe.Suite {
	case "benchmark_engine", "benchmark_chaos", "benchmark_scale":
		regressions, err = compareEngine(baseRaw, freshRaw, *tolerance, *slowdown, out)
	case "website_server":
		regressions, err = compareServer(baseRaw, freshRaw, *tolerance, *slowdown, out)
	default:
		return fmt.Errorf("unknown suite %q", baseProbe.Suite)
	}
	if err != nil {
		return err
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(out, "REGRESSION: %s\n", r)
		}
		return fmt.Errorf("%d metric(s) regressed beyond +%.0f%%", len(regressions), *tolerance*100)
	}
	fmt.Fprintf(out, "compare: %s within +%.0f%% of baseline\n", baseProbe.Suite, *tolerance*100)
	return nil
}

// check appends a regression line if fresh exceeds base by more than tol,
// and always prints the comparison row.
func check(out io.Writer, regressions []string, name string, base, fresh, tol float64, unit string) []string {
	limit := base * (1 + tol)
	status := "ok"
	if fresh > limit {
		status = "REGRESSED"
		regressions = append(regressions,
			fmt.Sprintf("%s: %.3f%s vs baseline %.3f%s (limit %.3f%s)", name, fresh, unit, base, unit, limit, unit))
	}
	delta := 0.0
	if base > 0 {
		delta = (fresh - base) / base * 100
	}
	fmt.Fprintf(out, "  %-34s %12.3f%s %12.3f%s %+7.1f%% %s\n", name, base, unit, fresh, unit, delta, status)
	return regressions
}

func compareEngine(baseRaw, freshRaw []byte, tol, slowdown float64, out io.Writer) ([]string, error) {
	var base, fresh benchmark.Report
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(freshRaw, &fresh); err != nil {
		return nil, err
	}
	freshBy := map[string]benchmark.Timing{}
	for _, tm := range fresh.Timings {
		freshBy[tm.Name] = tm
	}
	fmt.Fprintf(out, "engine compare (%-s): baseline vs fresh ns/op\n", base.Suite)
	var regressions []string
	for _, tm := range base.Timings {
		ft, ok := freshBy[tm.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from fresh run", tm.Name))
			continue
		}
		regressions = check(out, regressions, tm.Name,
			float64(tm.NsPerOp)/1e6, float64(ft.NsPerOp)/1e6*slowdown, tol, "ms")
	}
	// Speedup is a ratio where higher is better: losing more than the
	// tolerance's share of the baseline speedup is a regression even if no
	// single row tripped its own limit.
	if base.Speedup > 0 {
		floor := base.Speedup * (1 - tol)
		status := "ok"
		if fresh.Speedup < floor {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("speedup: %.2fx vs baseline %.2fx (floor %.2fx)", fresh.Speedup, base.Speedup, floor))
		}
		fmt.Fprintf(out, "  %-34s %13.2fx %13.2fx         %s\n", "speedup", base.Speedup, fresh.Speedup, status)
	}
	// XQuerySpeedup gates the engine flip the same way: the compiled-plan
	// engine must stay ahead of the reference interpreter by at least the
	// tolerance's share of the committed ratio.
	if base.XQuerySpeedup > 0 {
		floor := base.XQuerySpeedup * (1 - tol)
		status := "ok"
		if fresh.XQuerySpeedup < floor {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("xquery_speedup: %.2fx vs baseline %.2fx (floor %.2fx)",
					fresh.XQuerySpeedup, base.XQuerySpeedup, floor))
		}
		fmt.Fprintf(out, "  %-34s %13.2fx %13.2fx         %s\n",
			"xquery_speedup", base.XQuerySpeedup, fresh.XQuerySpeedup, status)
	}
	return regressions, nil
}

func compareServer(baseRaw, freshRaw []byte, tol, slowdown float64, out io.Writer) ([]string, error) {
	var base, fresh website.ServerReport
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(freshRaw, &fresh); err != nil {
		return nil, err
	}
	freshBy := map[string]website.RouteTiming{}
	for _, rt := range fresh.Routes {
		freshBy[rt.Route] = rt
	}
	fmt.Fprintf(out, "server compare: baseline vs fresh p95 per route\n")
	var regressions []string
	for _, rt := range base.Routes {
		ft, ok := freshBy[rt.Route]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from fresh run", rt.Route))
			continue
		}
		regressions = check(out, regressions, rt.Route, rt.P95MS, ft.P95MS*slowdown, tol, "ms")
	}
	if fresh.Non200 > base.Non200 {
		regressions = append(regressions,
			fmt.Sprintf("non-200 responses: %d vs baseline %d", fresh.Non200, base.Non200))
	}
	return regressions, nil
}
