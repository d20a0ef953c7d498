package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"thalia"
	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/rewrite"
	"thalia/internal/tess"
	"thalia/internal/ufmw"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
	"thalia/internal/xsd"
)

// freshSystems builds the four systems under test, cold: nothing built,
// nothing cached. Every real run path (thalia bench, thalia.EvaluateAll,
// POST /runs) starts from fresh systems like these.
func freshSystems() []integration.System {
	return []integration.System{cohera.New(), iwiz.New(), ufmw.New(), rewrite.NewSystem()}
}

// testbedCells is the number of query x system cells in one testbed run.
const testbedCells = 4 * 12

// layerOf names the layer each system's spans belong to.
var layerOf = map[string]string{
	"Cohera":               "cohera",
	"IWIZ":                 "iwiz",
	"UF Full Mediator":     "ufmw",
	"Declarative Mediator": "rewrite",
}

// section42 is the paper's Section 4.2 support table, written down
// independently of the code under test: per system, the queries it
// declines, the queries it answers with no code, and its correct count.
var section42 = map[string]struct {
	declined, noCode []int
	correct          int
}{
	"Cohera":               {declined: []int{4, 5, 8}, noCode: []int{1, 6, 9, 10}, correct: 9},
	"IWIZ":                 {declined: []int{4, 5, 8}, noCode: nil, correct: 9},
	"UF Full Mediator":     {correct: 12},
	"Declarative Mediator": {correct: 12},
}

// checkSection42 reports how ranked scorecards depart from the Section 4.2
// table, or "" when they reproduce it.
func checkSection42(ranked []*benchmark.Scorecard) string {
	if len(ranked) != len(section42) {
		return fmt.Sprintf("%d scorecards, want %d", len(ranked), len(section42))
	}
	for _, card := range ranked {
		want, ok := section42[card.System]
		if !ok {
			return "unexpected system " + card.System
		}
		if got := card.CorrectCount(); got != want.correct {
			return fmt.Sprintf("%s: %d correct, want %d", card.System, got, want.correct)
		}
		declined := map[int]bool{}
		for _, id := range want.declined {
			declined[id] = true
		}
		noCode := map[int]bool{}
		for _, id := range want.noCode {
			noCode[id] = true
		}
		for _, r := range card.Results {
			if r.Supported == declined[r.QueryID] {
				return fmt.Sprintf("%s: query %d supported=%v", card.System, r.QueryID, r.Supported)
			}
			if len(want.noCode) > 0 && r.Supported && (r.Effort == integration.EffortNone) != noCode[r.QueryID] {
				return fmt.Sprintf("%s: query %d effort %v", card.System, r.QueryID, r.Effort)
			}
		}
	}
	return ""
}

// canon renders ranked scorecards byte for byte: every card's table plus
// the side-by-side Section 4.2 comparison.
func canon(ranked []*benchmark.Scorecard) string {
	var b strings.Builder
	for _, c := range ranked {
		b.WriteString(c.Format())
	}
	b.WriteString(benchmark.Comparison(ranked))
	return b.String()
}

// renderSeq renders an XQuery result for comparison.
func renderSeq(seq xquery.Sequence) string {
	var b strings.Builder
	for _, it := range seq {
		b.WriteString(xquery.ItemString(it))
		b.WriteByte('\n')
	}
	return b.String()
}

// testbedRef is the reference a testbed-cold process computes once: the
// sequential runner's scorecards on fresh systems, and the twelve paper
// queries' results on the reference interpreter.
type testbedRef struct {
	canon  string
	digest string
	xquery []string
	broken string // why the reference itself is wrong, "" if it is sound
}

func newTestbedRef() (*testbedRef, error) {
	ranked, err := benchmark.NewSequentialRunner().EvaluateAll(freshSystems()...)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &testbedRef{canon: canon(ranked), digest: benchmark.ScorecardDigest(ranked)}
	if msg := checkSection42(ranked); msg != "" {
		ref.broken = "reference does not reproduce Section 4.2: " + msg
	}
	for _, q := range benchmark.Queries() {
		seq, err := thalia.EvalXQueryInterp(q.XQuery)
		if err != nil {
			return nil, fmt.Errorf("reference q%d: %w", q.ID, err)
		}
		ref.xquery = append(ref.xquery, renderSeq(seq))
	}
	return ref, nil
}

// testbedHooks lets the self-tests substitute the systems under test.
type testbedHooks struct {
	systems func() []integration.System
}

func setupTestbed(o *options) error { return catalog.MaterializeAll(o.pool) }

func runTestbed(o *options) (*report, error) {
	return testbedWorkload(o, testbedHooks{systems: freshSystems})
}

// testbedWorkload is testbed-cold: a closed loop with one caller. Each
// operation evaluates fresh systems with a fresh runner (pool = o.pool),
// then runs one pass of the twelve paper XQuery texts. Both outputs are
// checked against the reference; with o.trace, every other operation is
// traced and the rest stay bare, which gives the tracing overhead.
func testbedWorkload(o *options, h testbedHooks) (*report, error) {
	if err := setupTestbed(o); err != nil {
		return nil, err
	}
	ref, err := newTestbedRef()
	if err != nil {
		return nil, err
	}
	queries := benchmark.Queries()
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	tr := &tracer{}
	if o.trace {
		materializeProbe(rep, tr, 5)
	}
	planHits0, planMisses0 := plan.DefaultCacheStats()

	var runS, tracedS, xqS []sample
	var alloc, gcs []float64
	smp := startSampler()
	deadline := time.Now().Add(o.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		rep.attempted++
		systems := h.systems()
		runner := benchmark.NewRunner()
		runner.Concurrency = o.pool
		var op, runID int64
		var capt *captured
		if traced {
			op, runID = tr.id(), tr.id()
			capt = newCaptured()
			for k, s := range systems {
				systems[k] = &timedSystem{System: s, layer: layerOf[s.Name()], tr: tr, op: op, parent: runID, keep: capt.keepAnswer(s.Name())}
			}
			runner.Queries = timedQueries(runner.Queries, tr, op, runID, "benchmark", capt.keepWant)
		}

		var ranked []*benchmark.Scorecard
		var runErr error
		var runAt sample
		evaluate := func() {
			runAt.start = time.Now()
			ranked, runErr = runner.EvaluateAll(systems...)
			runAt.end = time.Now()
		}
		if o.trace && !traced {
			a, g := memDelta(evaluate)
			alloc = append(alloc, float64(a)/float64(len(systems)*len(queries)))
			gcs = append(gcs, float64(g))
		} else {
			evaluate()
		}
		if traced {
			tr.add(span{ID: runID, Op: op, Layer: "benchmark", Name: "evaluate_all", Start: runAt.start, End: runAt.end})
		}

		start := time.Now()
		var passID int64
		if traced {
			passID = tr.id()
		}
		results := make([]xquery.Sequence, len(queries))
		errs := make([]error, len(queries))
		for k, q := range queries {
			qs := time.Now()
			results[k], errs[k] = thalia.EvalXQuery(q.XQuery)
			if traced {
				tr.add(span{Parent: passID, Op: op, Layer: "plan", Name: "eval_xquery", Start: qs, End: time.Now()})
			}
		}
		xqAt := sample{start, time.Now()}
		if traced {
			tr.add(span{ID: passID, Op: op, Layer: "thalia", Name: "xquery_pass", Start: xqAt.start, End: xqAt.end})
		}

		// A failed operation counts as failed and is never timed.
		failed := rep.failed
		switch {
		case ref.broken != "":
			rep.fail("%s", ref.broken)
		case runErr != nil:
			rep.fail("operation %d: EvaluateAll: %v", i, runErr)
		case canon(ranked) != ref.canon:
			rep.fail("operation %d: ranked scorecards differ from the sequential reference", i)
		case benchmark.ScorecardDigest(ranked) != ref.digest:
			rep.fail("operation %d: scorecard digest differs from the reference", i)
		default:
			for k := range queries {
				if errs[k] != nil || renderSeq(results[k]) != ref.xquery[k] {
					rep.fail("operation %d: paper query %d differs from the reference interpreter (err=%v)", i, queries[k].ID, errs[k])
					break
				}
			}
		}
		switch {
		case rep.failed > failed:
		case traced:
			tracedS = append(tracedS, runAt)
		default:
			runS = append(runS, runAt)
			xqS = append(xqS, xqAt)
		}
		if traced {
			probeTestbedLayers(tr, op, systems, queries, capt)
		}
	}
	heapMB, goroutines := smp.halt()

	run, xq := o.steal.summarizeClean(rep, "op", runS), o.steal.summarizeClean(rep, "aux", xqS)
	rep.e2e["op_p50_ms"] = run.P50
	rep.e2e["aux_p50_ms"] = xq.P50
	if run.P50 > 0 {
		rep.e2e["cells_per_s"] = testbedCells / (run.P50 / 1000)
	}
	rep.e2e["peak_heap_mb"] = heapMB
	rep.note("op  = one cold EvaluateAll, 4 fresh systems x 12 queries, pool %d: %v", o.pool, run)
	rep.note("aux = one pass of the 12 paper XQuery texts through thalia.EvalXQuery: %v", xq)

	if o.trace {
		rep.spans = tr.snapshot()
		testbedLayers(rep, o, rep.spans)
		hits, misses := plan.DefaultCacheStats()
		if n := (hits - planHits0) + (misses - planMisses0); n > 0 {
			rep.layers["plan.cache_hit_ratio"] = float64(hits-planHits0) / float64(n)
		}
		rep.layers["runtime.alloc_bytes_per_cell"] = median(alloc)
		rep.layers["runtime.gc_cycles_per_pass"] = mean(gcs)
		rep.layers["runtime.goroutines_peak"] = float64(goroutines)
		tm := o.steal.summarizeClean(rep, "traced op", tracedS).P50
		rep.layers["trace.overhead_ms"] = tm - run.P50
		rep.note("tracing overhead: traced EvaluateAll p50 %.4g ms vs untraced %.4g ms (%+.1f%%)", tm, run.P50, 100*(tm-run.P50)/run.P50)
	}
	return rep, nil
}

// captured holds a traced run's expected and actual rows, so MatchRows can
// be timed on exactly the inputs the runner scored.
type captured struct {
	mu   sync.Mutex
	want map[int][]integration.Row
	got  map[string]map[int][]integration.Row
}

func newCaptured() *captured {
	return &captured{want: map[int][]integration.Row{}, got: map[string]map[int][]integration.Row{}}
}

func (c *captured) keepWant(id int, rows []integration.Row) {
	c.mu.Lock()
	c.want[id] = rows
	c.mu.Unlock()
}

func (c *captured) keepAnswer(system string) func(integration.Request, *integration.Answer) {
	return func(req integration.Request, ans *integration.Answer) {
		c.mu.Lock()
		if c.got[system] == nil {
			c.got[system] = map[int][]integration.Row{}
		}
		c.got[system][req.QueryID] = ans.Rows
		c.mu.Unlock()
	}
}

// probeTestbedLayers times, after a traced operation and outside its
// timings, the layer functions the runner calls internally or that the
// run only reaches through a system: MatchRows on the captured rows, the
// 48 repeat answers served by the warm systems' answer caches, a fresh
// Cohera's DB build, and the twelve paper texts compiled and evaluated
// directly on the plan engine.
func probeTestbedLayers(tr *tracer, op int64, systems []integration.System, queries []*benchmark.Query, capt *captured) {
	timeIt := func(layer, name string, fn func()) {
		start := time.Now()
		fn()
		tr.add(span{Op: op, Layer: layer, Name: name, Start: start, End: time.Now()})
	}
	for _, s := range systems {
		got := capt.got[s.Name()]
		for _, q := range queries {
			if rows, ok := got[q.ID]; ok {
				timeIt("integration", "match_rows", func() { integration.MatchRows(capt.want[q.ID], rows) })
			}
		}
	}
	for _, s := range systems {
		inner := s.(*timedSystem).System
		for _, q := range queries {
			timeIt("integration", "cache_hit", func() { _, _ = inner.Answer(q.Request()) })
		}
	}
	timeIt("cohera", "build", func() { _, _ = cohera.New().DB() })
	ctx := thalia.QueryContext()
	for _, q := range queries {
		var p *plan.Plan
		timeIt("plan", "compile", func() { p, _ = plan.CompileQuery(q.XQuery) })
		if p != nil {
			timeIt("plan", "eval", func() { _, _ = p.Eval(ctx) })
		}
	}
}

// spanMeanUS is the mean duration, in µs, of the spans with this layer and
// one of the names.
func spanMeanUS(spans []span, layer string, names ...string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				xs = append(xs, us(s.dur()))
				break
			}
		}
	}
	return mean(xs)
}

// runBreakdown splits each run span (layer/name) into the time its answer
// spans cover, and the residual no child span covers, and the workers'
// busy share. It returns per-run means: runner self time (run minus the
// answer spans it covers), residual (run minus every child span), and the
// busy ratio (answer time over pool x run time).
func runBreakdown(spans []span, layer, name string, pool int) (selfUS, residualUS, busy float64) {
	kids := children(spans)
	var selfs, residuals, busys []float64
	for _, s := range spans {
		if s.Layer != layer || s.Name != name {
			continue
		}
		var answers []span
		var answered time.Duration
		for _, k := range kids[s.ID] {
			if k.Name == "answer" || k.Name == "first_answer" {
				answers = append(answers, k)
				answered += k.dur()
			}
		}
		selfs = append(selfs, us(selfTime(s, answers)))
		residuals = append(residuals, us(selfTime(s, kids[s.ID])))
		if s.dur() > 0 {
			busys = append(busys, float64(answered)/(float64(pool)*float64(s.dur())))
		}
	}
	return mean(selfs), mean(residuals), mean(busys)
}

// testbedLayers fills the per-layer metrics a traced testbed run measures.
func testbedLayers(rep *report, o *options, spans []span) {
	l := rep.layers
	l["benchmark.expected_us"] = spanMeanUS(spans, "benchmark", "expected")
	l["benchmark.runner_self_us"], l["trace.residual_us"], l["benchmark.worker_busy_ratio"] = runBreakdown(spans, "benchmark", "evaluate_all", o.pool)
	l["integration.match_us"] = spanMeanUS(spans, "integration", "match_rows")
	l["integration.cache_hit_us"] = spanMeanUS(spans, "integration", "cache_hit")
	l["cohera.build_us"] = spanMeanUS(spans, "cohera", "build")
	l["cohera.answer_us"] = spanMeanUS(spans, "cohera", "answer", "first_answer")
	l["iwiz.first_answer_us"] = spanMeanUS(spans, "iwiz", "first_answer")
	l["iwiz.answer_us"] = spanMeanUS(spans, "iwiz", "answer")
	l["ufmw.answer_us"] = spanMeanUS(spans, "ufmw", "answer", "first_answer")
	l["rewrite.answer_us"] = spanMeanUS(spans, "rewrite", "answer", "first_answer")
	l["plan.compile_us"] = spanMeanUS(spans, "plan", "compile")
	l["plan.eval_us"] = spanMeanUS(spans, "plan", "eval")
}

// materializeProbe times the testbed's set-up layers by calling them
// directly, n times over all 35 sources: render (Source.RenderHTML),
// extract (tess.Extract, what Source materialization calls) and infer
// (xsd.Infer). It reports the median of the n totals in ms.
func materializeProbe(rep *report, tr *tracer, n int) {
	var render, extract, infer []float64
	for k := 0; k < n; k++ {
		op := tr.id()
		var r, e, i time.Duration
		for _, s := range catalog.All() {
			t0 := time.Now()
			page := s.RenderHTML(s)
			t1 := time.Now()
			doc, err := tess.Extract(s.Wrapper(), page)
			t2 := time.Now()
			if err != nil {
				rep.fail("extract %s: %v", s.Name, err)
				continue
			}
			if _, err := xsd.Infer(s.Name, doc); err != nil {
				rep.fail("infer %s: %v", s.Name, err)
			}
			t3 := time.Now()
			tr.add(span{Op: op, Layer: "catalog", Name: "render_html", Start: t0, End: t1})
			tr.add(span{Op: op, Layer: "tess", Name: "extract", Start: t1, End: t2})
			tr.add(span{Op: op, Layer: "xsd", Name: "infer", Start: t2, End: t3})
			r, e, i = r+t1.Sub(t0), e+t2.Sub(t1), i+t3.Sub(t2)
		}
		render, extract, infer = append(render, ms(r)), append(extract, ms(e)), append(infer, ms(i))
	}
	rep.layers["catalog.render_ms"] = median(render)
	rep.layers["tess.extract_ms"] = median(extract)
	rep.layers["xsd.infer_ms"] = median(infer)
}
