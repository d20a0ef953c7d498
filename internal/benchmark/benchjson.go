package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"thalia/internal/catalog"
	"thalia/internal/integration"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// Timing is one measured configuration of the evaluation engine, in the
// machine-readable shape the repo's BENCH_*.json artifacts use.
type Timing struct {
	// Name identifies the configuration, e.g. "evaluate_all/seq" or
	// "evaluate_all/par8".
	Name string `json:"name"`
	// Runs is the number of full EvaluateAll executions measured.
	Runs int `json:"runs"`
	// NsPerOp is the mean wall-clock nanoseconds per EvaluateAll.
	NsPerOp int64 `json:"ns_per_op"`
	// CellsPerSec is the evaluation throughput in query×system cells per
	// second, for suites (like benchmark_scale) whose configurations differ
	// in workload size rather than engine configuration — the scaling-curve
	// number. Zero (omitted) in suites that do not measure it.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
}

// Report is a benchmark-regression artifact: the sequential and parallel
// timings of the same workload, so the sequential→parallel speedup is
// pinned in version control rather than asserted in prose.
type Report struct {
	// Suite names the workload, e.g. "benchmark_engine".
	Suite string `json:"suite"`
	// GoMaxProcs records the parallelism available when measuring.
	GoMaxProcs int `json:"gomaxprocs"`
	// Systems lists the systems under evaluation, in input order.
	Systems []string `json:"systems"`
	// Timings holds one entry per measured configuration.
	Timings []Timing `json:"timings"`
	// Speedup is the sequential ns/op without the prep cache divided by the
	// best prep-cached configuration's ns/op — the combined gain from shared
	// preparation and the worker pool over the seed path.
	Speedup float64 `json:"speedup"`
	// XQuerySpeedup is the interpreter's ns/op divided by the compiled-plan
	// engine's for one pass of the twelve benchmark queries — the gate that
	// keeps the default execution path provably faster than the reference
	// interpreter. Zero (omitted) in suites that do not measure it.
	XQuerySpeedup float64 `json:"xquery_speedup,omitempty"`
}

// MeasureEngine times EvaluateAll over the given systems in three
// configurations, running each `runs` times, and returns the regression
// report:
//
//   - "evaluate_all/seq": Concurrency 1 with no prep cache — the original
//     recompute-per-cell seed path, kept as the comparison floor.
//   - "evaluate_all/plan_cache": Concurrency 1 with the shared-prep cache
//     attached, isolating what per-run preparation sharing alone buys.
//   - "evaluate_all/parN": a pool of N workers with the prep cache, one row
//     per requested pool size.
//
// Systems are warmed with one throwaway evaluation first so one-time
// materialization (warehouse builds, relation shredding) doesn't distort
// the comparison. Every timed row then has the warm systems answer all
// queries for real: no answer is memoized, so each row includes the
// systems' integration work as well as the engine's.
func MeasureEngine(runs int, poolSizes []int, systems ...integration.System) (*Report, error) {
	if runs <= 0 {
		runs = 1
	}
	rep := &Report{Suite: "benchmark_engine", GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, sys := range systems {
		rep.Systems = append(rep.Systems, sys.Name())
	}
	warm := NewSequentialRunner()
	if _, err := warm.EvaluateAll(systems...); err != nil {
		return nil, fmt.Errorf("benchmark: warm-up: %w", err)
	}
	measure := func(name string, workers int, prep bool) (Timing, error) {
		r := &Runner{Queries: Queries(), Concurrency: workers}
		if prep {
			r.Prep = NewPrepCache()
		}
		start := time.Now()
		for i := 0; i < runs; i++ {
			if _, err := r.EvaluateAll(systems...); err != nil {
				return Timing{}, fmt.Errorf("benchmark: %s: %w", name, err)
			}
		}
		return Timing{Name: name, Runs: runs, NsPerOp: time.Since(start).Nanoseconds() / int64(runs)}, nil
	}
	seq, err := measure("evaluate_all/seq", 1, false)
	if err != nil {
		return nil, err
	}
	rep.Timings = append(rep.Timings, seq)
	best := int64(0)
	cached, err := measure("evaluate_all/plan_cache", 1, true)
	if err != nil {
		return nil, err
	}
	rep.Timings = append(rep.Timings, cached)
	best = cached.NsPerOp
	for _, workers := range poolSizes {
		if workers <= 1 {
			continue
		}
		par, err := measure(fmt.Sprintf("evaluate_all/par%d", workers), workers, true)
		if err != nil {
			return nil, err
		}
		rep.Timings = append(rep.Timings, par)
		if best == 0 || par.NsPerOp < best {
			best = par.NsPerOp
		}
	}
	if best > 0 {
		rep.Speedup = float64(seq.NsPerOp) / float64(best)
	}
	xq, err := measureXQueryEngines(runs)
	if err != nil {
		return nil, err
	}
	rep.Timings = append(rep.Timings, xq...)
	if len(xq) == 2 && xq[1].NsPerOp > 0 {
		rep.XQuerySpeedup = float64(xq[0].NsPerOp) / float64(xq[1].NsPerOp)
	}
	return rep, nil
}

// xqueryPassesPerRun scales the XQuery engine rows: one evaluation pass of
// the twelve queries is microseconds, so each configured run measures this
// many passes to keep the row's ns/op stable on noisy runners.
const xqueryPassesPerRun = 40

// measureXQueryEngines times one pass of the twelve benchmark queries'
// XQuery text through each engine against the extracted testbed:
//
//   - "xquery_eval/interp": the reference interpreter, re-parsing per
//     evaluation — the pre-flip seed path.
//   - "xquery_eval/plan": the compiled-plan engine behind a plan.Cache —
//     the default execution path, which a real run reaches through
//     plan.EvalQuery's process-wide cache.
//
// Their ratio is the Report's XQuerySpeedup, the engine-flip gate.
func measureXQueryEngines(runs int) ([]Timing, error) {
	queries := Queries()
	resolve := catalog.Resolver()
	warm := xquery.NewContext(resolve)
	for _, q := range queries {
		if _, err := xquery.EvalQuery(q.XQuery, warm); err != nil {
			return nil, fmt.Errorf("benchmark: xquery warm-up q%d: %w", q.ID, err)
		}
	}
	passes := runs * xqueryPassesPerRun
	start := time.Now()
	for i := 0; i < passes; i++ {
		ctx := xquery.NewContext(resolve)
		for _, q := range queries {
			if _, err := xquery.EvalQuery(q.XQuery, ctx); err != nil {
				return nil, fmt.Errorf("benchmark: xquery_eval/interp q%d: %w", q.ID, err)
			}
		}
	}
	interp := Timing{Name: "xquery_eval/interp", Runs: passes,
		NsPerOp: time.Since(start).Nanoseconds() / int64(passes)}
	cache := plan.NewCache()
	start = time.Now()
	for i := 0; i < passes; i++ {
		ctx := xquery.NewContext(resolve)
		for _, q := range queries {
			p, err := cache.Get(q.XQuery)
			if err != nil {
				return nil, fmt.Errorf("benchmark: xquery_eval/plan q%d: %w", q.ID, err)
			}
			if _, err := p.Eval(ctx); err != nil {
				return nil, fmt.Errorf("benchmark: xquery_eval/plan q%d: %w", q.ID, err)
			}
		}
	}
	planRow := Timing{Name: "xquery_eval/plan", Runs: passes,
		NsPerOp: time.Since(start).Nanoseconds() / int64(passes)}
	return []Timing{interp, planRow}, nil
}

// WriteJSON writes the report to path as indented JSON, the BENCH_*.json
// artifact format.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
