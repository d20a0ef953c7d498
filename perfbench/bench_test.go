package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"thalia/internal/integration"
)

func testOptions(t *testing.T, workload string) *options {
	return &options{
		workload: workload, seed: 1, duration: 300 * time.Millisecond, pool: 2,
		sources: 60, mix: "uniform", rate: 100,
		outDir: t.TempDir(), tmpDir: t.TempDir(),
	}
}

// The highest percentile reported must have at least ten samples beyond
// it, and must be the highest that does.
func TestTailPercentile(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		p, ok := tailPercentile(n)
		if n < 2*minBeyond {
			if ok || p != 50 {
				t.Fatalf("n=%d: got p%d ok=%v, want p50 and not ok", n, p, ok)
			}
			continue
		}
		if !ok || p < 50 || p > 99 {
			t.Fatalf("n=%d: got p%d ok=%v", n, p, ok)
		}
		if beyond := n - rank(n, p); beyond < minBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, beyond)
		}
		if p < 99 && n-rank(n, p+1) >= minBeyond {
			t.Fatalf("n=%d: p%d is not the highest valid percentile", n, p)
		}
	}
	if p, _ := tailPercentile(1000); p != 99 {
		t.Fatalf("n=1000: p%d, want p99", p)
	}
	d := summarize([]float64{5, 1, 4, 2, 3})
	if d.P50 != 3 || d.N != 5 {
		t.Fatalf("summarize: %+v", d)
	}
}

// A stalled handler must inflate the latency of every request queued
// behind it: latency runs from when a request was due, not from when a
// worker got to it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
	})
	var reqs []request
	for i := 0; i < 20; i++ {
		path := "/ok"
		if i == 2 {
			path = "/stall"
		}
		reqs = append(reqs, request{method: http.MethodGet, path: path, due: time.Duration(i) * time.Millisecond})
	}
	outs := openLoop(h, reqs, 1, nil, nil)
	if got := outs[1].latency(); got > stall/2 {
		t.Fatalf("request before the stall took %v", got)
	}
	for i := 3; i < 10; i++ {
		lat, service := outs[i].latency(), outs[i].done.Sub(outs[i].dispatched)
		if lat < stall/2 {
			t.Errorf("request %d queued behind the stall: latency %v, want at least %v", i, lat, stall/2)
		}
		if service > stall/4 {
			t.Errorf("request %d: service time %v should not include the stall", i, service)
		}
	}
	// The trace of the same loop gives each request a queue_wait child.
	tr := &tracer{}
	openLoop(&timedHandler{next: h, tr: tr}, reqs, 1, tr, nil)
	spans := tr.snapshot()
	kids := children(spans)
	var roots int
	for _, s := range spans {
		if s.Layer == "site" {
			roots++
			if len(kids[s.ID]) != 2 {
				t.Fatalf("request span has %d children, want queue_wait and the handler", len(kids[s.ID]))
			}
		}
	}
	if roots != len(reqs) {
		t.Fatalf("%d request spans, want %d", roots, len(reqs))
	}
}

// covered counts overlapping children once and clips them to the parent.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)}, // overlaps the first
		{Start: at(90), End: at(120)},
	}
	if got := covered(parent, kids); got != 40*time.Millisecond {
		t.Fatalf("covered = %v, want 40ms", got)
	}
	if got := selfTime(parent, kids); got != 60*time.Millisecond {
		t.Fatalf("self = %v, want 60ms", got)
	}
}

// dropLastRow is a deliberately wrong system: it loses one row of every
// non-empty answer.
type dropLastRow struct{ integration.System }

func (d dropLastRow) Answer(req integration.Request) (*integration.Answer, error) {
	ans, err := d.System.Answer(req)
	if err != nil || len(ans.Rows) == 0 {
		return ans, err
	}
	wrong := *ans
	wrong.Rows = ans.Rows[:len(ans.Rows)-1]
	return &wrong, nil
}

func TestWrongSystemRaisesErrorRatio(t *testing.T) {
	o := testOptions(t, "testbed-cold")
	rep, err := testbedWorkload(o, testbedHooks{systems: func() []integration.System {
		s := freshSystems()
		s[2] = dropLastRow{s[2]}
		return s
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != rep.attempted {
		t.Fatalf("failed %d of %d operations, want all of them", rep.failed, rep.attempted)
	}

	rep, err = testbedWorkload(o, testbedHooks{systems: freshSystems})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("correct systems: failed %d of %d: %v", rep.failed, rep.attempted, rep.checks)
	}
}

func TestWrongScenarioAnswerRaisesErrorRatio(t *testing.T) {
	o := testOptions(t, "scenario-stream")
	rep, err := scenarioWorkload(o, scenarioHooks{wrap: func(s integration.System) integration.System { return dropLastRow{s} }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != rep.attempted {
		t.Fatalf("failed %d of %d passes, want all of them", rep.failed, rep.attempted)
	}
	rep, err = scenarioWorkload(o, scenarioHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("correct mediator: failed %d of %d: %v", rep.failed, rep.attempted, rep.checks)
	}
}

// A run whose digest differs from the reference counts as failed.
func TestWrongRunDigestRaisesErrorRatio(t *testing.T) {
	o := testOptions(t, "site-mixed")
	o.duration = time.Second
	rep, err := siteWorkload(o, siteHooks{refDigest: "not-the-reference"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("no failures among %d requests", rep.attempted)
	}
	for _, c := range rep.checks {
		if len(c) == 0 {
			t.Fatal("empty check message")
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// A traced run of each workload fills the per-layer metrics of the layers
// that workload exercises.
func TestTracedRunsFillTheirLayers(t *testing.T) {
	want := map[string][]string{
		"testbed-cold": {"catalog.render_ms", "tess.extract_ms", "xsd.infer_ms", "benchmark.expected_us",
			"benchmark.runner_self_us", "benchmark.worker_busy_ratio", "integration.match_us", "integration.cache_hit_us",
			"cohera.build_us", "cohera.answer_us", "iwiz.first_answer_us", "iwiz.answer_us", "ufmw.answer_us",
			"rewrite.answer_us", "plan.compile_us", "plan.eval_us", "plan.cache_hit_ratio", "runtime.alloc_bytes_per_cell",
			"trace.residual_us"},
		"scenario-stream": {"benchmark.expected_us", "benchmark.runner_self_us", "integration.match_us",
			"scenario.render_us", "scenario.truth_us", "scenario.spec_us", "scenario.answer_us", "plan.compile_us",
			"plan.eval_us", "docsource.builds_per_source", "docsource.high_water", "runtime.alloc_bytes_per_cell",
			"runtime.gc_cycles_per_pass", "trace.residual_us"},
		"site-mixed": {"catalog.render_ms", "website.read_handler_us", "website.zip_ms", "website.post_runs_us",
			"website.queue_wait_ms", "website.retained_runs", "website.sustained_rps", "journal.events_per_run",
			"journal.bytes_per_run", "runtime.goroutines_peak"},
	}
	for name, metrics := range want {
		o := testOptions(t, name)
		o.trace, o.duration = true, 2*time.Second
		rep, err := workloads[name].run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d failures: %v", name, rep.failed, rep.checks)
		}
		for _, m := range metrics {
			if rep.layers[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, rep.layers[m])
			}
		}
		if len(rep.spans) == 0 {
			t.Errorf("%s: no spans", name)
		}
	}
}
