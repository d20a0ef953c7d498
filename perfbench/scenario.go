package main

import (
	"fmt"
	"math/rand"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/integration"
	"thalia/internal/scenario"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// scenarioSources is the size of scenario-stream's generated scenario.
const scenarioSources = 5000

// smallSources is the size of the aux operation's scenario: the testbed's
// size, the smallest point of the legacy scale curve.
const smallSources = 35

// smallPasses is how many small passes follow each full pass.
const smallPasses = 3

// probeSources is how many sampled sources a traced pass times the
// scenario layer's functions on.
const probeSources = 100

// newScenario generates a scenario of n sources from the benchmark's seed
// and mix, and its query family.
func newScenario(o *options, n int) (*scenario.Scenario, []*benchmark.Query, error) {
	mix, err := scenario.ParseMix(o.mix)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scenario.New(scenario.Params{Sources: n, Seed: o.seed, Mix: mix})
	if err != nil {
		return nil, nil, err
	}
	return sc, sc.Queries(), nil
}

func setupScenario(o *options) error {
	_, _, err := newScenario(o, o.sources)
	return err
}

// scenarioHooks lets the self-tests corrupt the system under test.
type scenarioHooks struct {
	wrap func(integration.System) integration.System
}

func runScenario(o *options) (*report, error) {
	return scenarioWorkload(o, scenarioHooks{})
}

// scenarioPass is one streaming evaluation of a scenario by a fresh
// mediator on a fresh streaming runner (pool = o.pool).
type scenarioPass struct {
	card     *benchmark.Scorecard
	err      error
	start    time.Time
	end      time.Time
	mediator *scenario.Mediator
}

func runPass(o *options, h scenarioHooks, sc *scenario.Scenario, qs []*benchmark.Query, wrap func(integration.System) integration.System) scenarioPass {
	med := sc.NewMediator()
	var sys integration.System = med
	if h.wrap != nil {
		sys = h.wrap(sys)
	}
	if wrap != nil {
		sys = wrap(sys)
	}
	runner := benchmark.NewStreamingRunner(qs)
	runner.Concurrency = o.pool
	p := scenarioPass{mediator: med, start: time.Now()}
	cards, err := runner.EvaluateAll(sys)
	p.end = time.Now()
	p.err = err
	if err == nil {
		p.card = cards[0]
	}
	return p
}

// checkPass reports why a pass is wrong, or "": every source must score.
func checkPass(p scenarioPass, sources int) string {
	switch {
	case p.err != nil:
		return p.err.Error()
	case len(p.card.Results) != sources:
		return fmt.Sprintf("%d results for %d sources", len(p.card.Results), sources)
	case p.card.CorrectCount() != sources:
		return fmt.Sprintf("%d of %d cells correct", p.card.CorrectCount(), sources)
	}
	return ""
}

// scenarioWorkload is scenario-stream: a closed loop with one caller. Each
// operation streams a generated scenario of o.sources sources through the
// scenario mediator; smallPasses evaluations of a 35-source scenario of
// the same seed and mix follow it as the aux operation. Every pass must
// score every cell correct. With o.trace, every other full pass is traced.
func scenarioWorkload(o *options, h scenarioHooks) (*report, error) {
	sc, qs, err := newScenario(o, o.sources)
	if err != nil {
		return nil, err
	}
	small, smallQs, err := newScenario(o, smallSources)
	if err != nil {
		return nil, err
	}
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	tr := &tracer{}
	rng := rand.New(rand.NewSource(o.seed))

	var passS, tracedS, smallS []sample
	var alloc, gcs []float64
	var builds, highWater []float64
	smp := startSampler()
	deadline := time.Now().Add(o.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		rep.attempted++
		var p scenarioPass
		switch {
		case traced:
			op, runID := tr.id(), tr.id()
			sampled := map[int]bool{}
			for len(sampled) < probeSources && len(sampled) < o.sources {
				sampled[rng.Intn(o.sources)+1] = true
			}
			capt := newCaptured()
			keepWant := func(id int, rows []integration.Row) {
				if sampled[id] {
					capt.keepWant(id, rows)
				}
			}
			keepGot := capt.keepAnswer("scenario")
			tqs := timedQueries(qs, tr, op, runID, "benchmark", keepWant)
			p = runPass(o, h, sc, tqs, func(s integration.System) integration.System {
				return &timedSystem{System: s, layer: "scenario", tr: tr, op: op, parent: runID,
					keep: func(req integration.Request, ans *integration.Answer) {
						if sampled[req.QueryID] {
							keepGot(req, ans)
						}
					}}
			})
			tr.add(span{ID: runID, Op: op, Layer: "benchmark", Name: "evaluate_all", Start: p.start, End: p.end})
			probeScenarioLayers(tr, op, sc, sampled, capt)
		case o.trace:
			a, g := memDelta(func() { p = runPass(o, h, sc, qs, nil) })
			alloc = append(alloc, float64(a)/float64(o.sources))
			gcs = append(gcs, float64(g))
		default:
			p = runPass(o, h, sc, qs, nil)
		}
		// A failed pass counts as failed and is never timed.
		switch msg := checkPass(p, o.sources); {
		case msg != "":
			rep.fail("pass %d: %s", i, msg)
		case traced:
			tracedS = append(tracedS, sample{p.start, p.end})
		default:
			passS = append(passS, sample{p.start, p.end})
		}
		b, _, hw := p.mediator.Docs().Stats()
		builds = append(builds, float64(b)/float64(o.sources))
		highWater = append(highWater, float64(hw))

		for k := 0; k < smallPasses; k++ {
			rep.attempted++
			sp := runPass(o, h, small, smallQs, nil)
			if msg := checkPass(sp, smallSources); msg != "" {
				rep.fail("small pass %d.%d: %s", i, k, msg)
				continue
			}
			smallS = append(smallS, sample{sp.start, sp.end})
		}
	}
	heapMB, goroutines := smp.halt()

	pass, sm := o.steal.summarizeClean(rep, "op", passS), o.steal.summarizeClean(rep, "aux", smallS)
	rep.e2e["op_p50_ms"] = pass.P50
	rep.e2e["aux_p50_ms"] = sm.P50
	if pass.P50 > 0 {
		rep.e2e["cells_per_s"] = float64(o.sources) / (pass.P50 / 1000)
	}
	rep.e2e["peak_heap_mb"] = heapMB
	rep.note("op  = one streaming pass over %d generated sources (mix %s), pool %d: %v", o.sources, o.mix, o.pool, pass)
	rep.note("aux = one streaming pass over %d generated sources: %v", smallSources, sm)

	if o.trace {
		rep.spans = tr.snapshot()
		l := rep.layers
		l["benchmark.expected_us"] = spanMeanUS(rep.spans, "benchmark", "expected")
		l["benchmark.runner_self_us"], l["trace.residual_us"], l["benchmark.worker_busy_ratio"] = runBreakdown(rep.spans, "benchmark", "evaluate_all", o.pool)
		l["integration.match_us"] = spanMeanUS(rep.spans, "integration", "match_rows")
		l["scenario.answer_us"] = spanMeanUS(rep.spans, "scenario", "answer", "first_answer")
		l["scenario.render_us"] = spanMeanUS(rep.spans, "scenario", "challenge_document")
		l["scenario.truth_us"] = spanMeanUS(rep.spans, "scenario", "truth")
		l["scenario.spec_us"] = spanMeanUS(rep.spans, "scenario", "spec")
		l["plan.compile_us"] = spanMeanUS(rep.spans, "plan", "compile")
		l["plan.eval_us"] = spanMeanUS(rep.spans, "plan", "eval")
		l["docsource.builds_per_source"] = mean(builds)
		l["docsource.high_water"] = maxOf(highWater)
		l["runtime.alloc_bytes_per_cell"] = median(alloc)
		l["runtime.gc_cycles_per_pass"] = mean(gcs)
		l["runtime.goroutines_peak"] = float64(goroutines)
		tm := o.steal.summarizeClean(rep, "traced op", tracedS).P50
		l["trace.overhead_ms"] = tm - pass.P50
		rep.note("tracing overhead: traced pass p50 %.5g ms vs untraced %.5g ms (%+.1f%%)", tm, pass.P50, 100*(tm-pass.P50)/pass.P50)
	}
	return rep, nil
}

// probeScenarioLayers times, outside the pass, the scenario functions the
// mediator and the runner call internally, on the sampled sources: Spec,
// ChallengeDocument, Truth, the challenge query compiled and evaluated on
// the plan engine, and MatchRows on the rows the pass scored.
func probeScenarioLayers(tr *tracer, op int64, sc *scenario.Scenario, sample map[int]bool, capt *captured) {
	timeIt := func(layer, name string, fn func()) {
		start := time.Now()
		fn()
		tr.add(span{Op: op, Layer: layer, Name: name, Start: start, End: time.Now()})
	}
	for id := range sample {
		i := id - 1
		var spec scenario.QuerySpec
		var doc *xmldom.Document
		timeIt("scenario", "spec", func() { spec = sc.Spec(i) })
		timeIt("scenario", "challenge_document", func() { doc = sc.ChallengeDocument(i) })
		timeIt("scenario", "truth", func() { _ = sc.Truth(i) })
		var p *plan.Plan
		timeIt("plan", "compile", func() { p, _ = plan.CompileQuery(spec.ChallengeXQuery) })
		if p != nil {
			uri := spec.Source + ".xml"
			ctx := xquery.NewContext(func(u string) (*xmldom.Document, error) {
				if u == uri {
					return doc, nil
				}
				return nil, fmt.Errorf("no document %q", u)
			})
			timeIt("plan", "eval", func() { _, _ = p.Eval(ctx) })
		}
		if got, ok := capt.got["scenario"][id]; ok {
			timeIt("integration", "match_rows", func() { integration.MatchRows(capt.want[id], got) })
		}
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
