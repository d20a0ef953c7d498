package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/journal"
	"thalia/internal/website"
)

// referenceRate is site-mixed's reference rate in requests per second:
// well below where this mix saturates a 2-CPU machine (800-1600 req/s), so
// read latency there measures service, not a growing queue.
const referenceRate = 200

// readLimitMS is the read latency limit, at the tail percentile, that a
// ladder rate must meet to count as sustained.
const readLimitMS = 25

// runTimeout bounds how long a POST /runs run may take to complete before
// it counts as never completing.
const runTimeout = 60 * time.Second

type reqKind int

const (
	kindRead reqKind = iota
	kindZip
	kindPost
)

func (k reqKind) String() string { return [...]string{"read", "zip", "post_runs"}[k] }

// request is one scheduled request of the open loop.
type request struct {
	kind   reqKind
	method string
	path   string
	body   string
	due    time.Duration // offset from the segment's start
}

// readRoutes are the Figure 4 read paths; {src} is replaced by a seeded
// pick among the 35 sources.
var readRoutes = []string{"/", "/catalogs", "/catalogs/{src}", "/browse/{src}", "/schema/{src}", "/queries", "/honor-roll", "/runs"}

// mixEvery is the period of the request mix: in every mixEvery
// consecutive requests, one is a benchmark.zip download, one (half a period
// later) is a POST /runs, and the rest are reads.
const mixEvery = 20

// schedule draws the requests of one segment: evenly spaced at rate per
// second for d, 90% reads (each a seeded pick, uniform over readRoutes), 5%
// benchmark.zip downloads and 5% POST /runs. The heavy requests sit at
// fixed places in the mix, so no seed crowds them together: a run's
// latency then measures the run beside reads, not how many other runs and
// downloads the seed happened to put next to it.
//
// Each POSTed run evaluates sequentially (concurrency=1). A parallel run
// would take both CPUs of a small machine from the open loop's workers,
// and its latency would then hang on how reads land between its workers
// rather than on the run's own work; the parallel runner is timed by
// testbed-cold.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []request {
	sources := catalog.Names()
	n := int(rate * d.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		r := request{method: http.MethodGet, due: time.Duration(float64(i) / rate * float64(time.Second))}
		switch i % mixEvery {
		case 0:
			r.kind, r.path = kindZip, "/download/benchmark.zip"
		case mixEvery / 2:
			r.kind, r.method, r.path = kindPost, http.MethodPost, "/runs"
			r.body = "concurrency=1"
		default:
			route := readRoutes[rng.Intn(len(readRoutes))]
			r.kind, r.path = kindRead, strings.Replace(route, "{src}", sources[rng.Intn(len(sources))], 1)
		}
		reqs[i] = r
	}
	return reqs
}

// outcome is what happened to one request.
type outcome struct {
	due, enqueued, dispatched, done time.Time
	status                          int
	body                            []byte
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// responseRecorder is an in-process ResponseWriter that keeps the body only
// when asked, and flushes (for the SSE run stream) as a no-op.
type responseRecorder struct {
	header http.Header
	code   int
	keep   bool
	body   bytes.Buffer
}

func newRecorder(keep bool) *responseRecorder {
	return &responseRecorder{header: http.Header{}, keep: keep}
}

func (w *responseRecorder) Header() http.Header { return w.header }
func (w *responseRecorder) Flush()              {}

func (w *responseRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.keep {
		w.body.Write(b)
	}
	return len(b), nil
}

func (w *responseRecorder) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// serve dispatches one in-process request through h.
func serve(ctx context.Context, h http.Handler, method, path, body string, keep bool) (*responseRecorder, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://thalia.test"+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	w := newRecorder(keep)
	h.ServeHTTP(w, req)
	return w, nil
}

// openLoop runs reqs against h as an open loop: the calling goroutine is
// the generator, sleeping until each request is due and queueing it
// whatever the state of the server; `workers` goroutines serve the queue
// in order. A request's latency runs from when it was due, so a stall
// shows in every request queued behind it. after, when set, runs on the
// worker once a request is served. openLoop returns when every request has
// been served.
//
// With tr, every request is traced: a request span from due to done, a
// queue_wait child from due to dispatch, and the IDs passed in the request
// context so that timedHandler can hang the handler span under it.
func openLoop(h http.Handler, reqs []request, workers int, tr *tracer, after func(i int, o *outcome)) []outcome {
	outs := make([]outcome, len(reqs))
	// Sized to the number of sends: the generator never blocks on a busy
	// server, so a backlog shows up as queue wait rather than as a late
	// generator.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o, r := &outs[i], reqs[i]
				ctx := context.Background()
				var ids traceIDs
				if tr != nil {
					ids = traceIDs{op: tr.id(), parent: tr.id()}
					ctx = context.WithValue(ctx, traceKey{}, ids)
				}
				o.dispatched = time.Now()
				rec, err := serve(ctx, h, r.method, r.path, r.body, r.kind == kindPost)
				o.done = time.Now()
				if tr != nil {
					tr.add(span{ID: ids.parent, Op: ids.op, Layer: "site", Name: "request", Start: o.due, End: o.done})
					tr.add(span{Parent: ids.parent, Op: ids.op, Layer: "generator", Name: "queue_wait", Start: o.due, End: o.dispatched})
				}
				if err == nil {
					o.status, o.body = rec.status(), rec.body.Bytes()
				}
				if after != nil {
					after(i, o)
				}
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].due = due
		outs[i].enqueued = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// newSite builds a fresh site journaling into a new directory under
// tmpDir, and warms every route once so that first-touch costs stay out of
// the measurement. The returned cleanup removes the journals.
func newSite(tmpDir string) (http.Handler, string, func(), error) {
	dir, err := os.MkdirTemp(tmpDir, "journal-")
	if err != nil {
		return nil, "", nil, err
	}
	cleanup := func() { _ = os.RemoveAll(dir) }
	site := website.New()
	if err := site.SetJournalDir(dir); err != nil {
		cleanup()
		return nil, "", nil, err
	}
	h := site.Handler()
	warm := append(append([]string(nil), readRoutes...), "/download/benchmark.zip")
	for _, route := range warm {
		w, err := serve(context.Background(), h, http.MethodGet, strings.Replace(route, "{src}", "cmu", 1), "", false)
		if err == nil && w.status() != http.StatusOK {
			err = fmt.Errorf("status %d", w.status())
		}
		if err != nil {
			cleanup()
			return nil, "", nil, fmt.Errorf("warm-up %s: %w", route, err)
		}
	}
	return h, dir, cleanup, nil
}

func setupSite(o *options) error {
	if err := catalog.MaterializeAll(o.pool); err != nil {
		return err
	}
	_, _, cleanup, err := newSite(o.tmpDir)
	if err != nil {
		return err
	}
	cleanup()
	return nil
}

// segment is one open-loop stretch at one rate against a fresh site.
type segment struct {
	reads, zips           []sample  // from due until the response
	runDone               []sample  // POST due until its run was seen complete
	queueWait, lag        []float64 // ms
	attempted, failed     int
	checks                []string
	retained              int
	journalEvents, jBytes []float64
	backlogGrew           bool
}

func (s *segment) fail(format string, args ...any) {
	s.failed++
	if len(s.checks) < 20 {
		s.checks = append(s.checks, fmt.Sprintf(format, args...))
	}
}

// runSegment drives one segment. Each POST /runs is watched the way the
// site's clients watch it, on the run's event stream, which ends when the
// run is over; the run's summary must then be complete, its recorded and
// replayed digests equal, and equal to the reference digest. With tr, the
// handler is wrapped in a timing decorator and every request is traced.
func runSegment(o *options, rng *rand.Rand, rate float64, d time.Duration, refDigest string, tr *tracer) (*segment, error) {
	h, dir, cleanup, err := newSite(o.tmpDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	handler := h
	if tr != nil {
		handler = &timedHandler{next: h, tr: tr}
	}
	reqs := schedule(rng, rate, d)
	seg := &segment{}
	var mu sync.Mutex
	var watchers sync.WaitGroup
	after := func(i int, out *outcome) {
		if reqs[i].kind != kindPost || out.status != http.StatusAccepted {
			return
		}
		var resp struct{ ID string }
		if err := json.Unmarshal(out.body, &resp); err != nil || resp.ID == "" {
			mu.Lock()
			seg.fail("POST /runs: no run id in %q", out.body)
			mu.Unlock()
			return
		}
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			done, msg := watchRun(h, resp.ID, refDigest)
			mu.Lock()
			defer mu.Unlock()
			if msg != "" {
				seg.fail("run %s: %s", resp.ID, msg)
				return
			}
			seg.runDone = append(seg.runDone, sample{out.due, done})
		}()
	}
	outs := openLoop(handler, reqs, o.pool, tr, after)
	watchers.Wait()

	third := len(outs) / 3
	var early, late []float64
	for i := range outs {
		out, r := &outs[i], reqs[i]
		seg.attempted++
		want := http.StatusOK
		if r.kind == kindPost {
			want = http.StatusAccepted
		}
		if out.status != want {
			seg.fail("%s %s: status %d", r.method, r.path, out.status)
			continue
		}
		lat := sample{out.due, out.done}
		switch r.kind {
		case kindRead:
			seg.reads = append(seg.reads, lat)
		case kindZip:
			seg.zips = append(seg.zips, lat)
		}
		wait := ms(out.dispatched.Sub(out.due))
		seg.queueWait = append(seg.queueWait, wait)
		seg.lag = append(seg.lag, ms(out.enqueued.Sub(out.due)))
		if i < third {
			early = append(early, wait)
		} else if i >= len(outs)-third {
			late = append(late, wait)
		}
	}
	seg.backlogGrew = mean(late)-mean(early) > readLimitMS/5

	if w, err := serve(context.Background(), h, http.MethodGet, "/runs", "", true); err == nil {
		var list struct{ Runs []json.RawMessage }
		if json.Unmarshal(w.body.Bytes(), &list) == nil {
			seg.retained = len(list.Runs)
		}
	}
	journals, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		seg.journalEvents = append(seg.journalEvents, float64(bytes.Count(data, []byte{'\n'})))
		seg.jBytes = append(seg.jBytes, float64(len(data)))
	}
	return seg, nil
}

// watchRun follows run id's event stream until the run is over, then
// checks its summary. It returns when the run was seen complete and why
// the run is wrong ("" when it is right).
func watchRun(h http.Handler, id, refDigest string) (time.Time, string) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	w, err := serve(ctx, h, http.MethodGet, "/runs/"+id+"/events", "", false)
	done := time.Now()
	if err != nil {
		return done, "event stream: " + err.Error()
	}
	if w.status() != http.StatusOK {
		return done, fmt.Sprintf("event stream: status %d", w.status())
	}
	if w, err = serve(context.Background(), h, http.MethodGet, "/runs/"+id, "", true); err != nil {
		return done, "summary: " + err.Error()
	}
	if w.status() != http.StatusOK {
		return done, fmt.Sprintf("summary: status %d", w.status())
	}
	var sum journal.ReportSummary
	if err := json.Unmarshal(w.body.Bytes(), &sum); err != nil {
		return done, "summary: " + err.Error()
	}
	switch {
	case !sum.Complete:
		return done, "never completed"
	case sum.RecordedDigest != sum.ReplayedDigest:
		return done, fmt.Sprintf("recorded digest %s, replayed %s", sum.RecordedDigest, sum.ReplayedDigest)
	case sum.RecordedDigest != refDigest:
		return done, fmt.Sprintf("digest %s, reference %s", sum.RecordedDigest, refDigest)
	}
	return done, ""
}

// traceKey carries a request's trace IDs to the timing decorator.
type traceKey struct{}

type traceIDs struct{ op, parent int64 }

// timedHandler is a timing decorator around the site's http.Handler:
// every request becomes a span of the website layer, named by its kind.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	name := kindRead.String()
	switch {
	case r.Method == http.MethodPost:
		name = kindPost.String()
	case strings.HasPrefix(r.URL.Path, "/download/"):
		name = kindZip.String()
	}
	ids, _ := r.Context().Value(traceKey{}).(traceIDs)
	t.tr.add(span{Op: ids.op, Parent: ids.parent, Layer: "website", Name: name, Start: start, End: end})
}

// siteHooks lets the self-tests substitute the reference digest.
type siteHooks struct{ refDigest string }

func runSite(o *options) (*report, error) {
	if err := catalog.MaterializeAll(o.pool); err != nil {
		return nil, err
	}
	ranked, err := benchmark.NewSequentialRunner().EvaluateAll(freshSystems()...)
	if err != nil {
		return nil, err
	}
	return siteWorkload(o, siteHooks{refDigest: benchmark.ScorecardDigest(ranked)})
}

// siteLife is how long one site instance serves before the benchmark
// starts a fresh one. POST /runs keeps every run (and its event backlog)
// for the life of the site and GET /runs lists them all, so a site's read
// cost grows with its age; a bounded life keeps each stretch at the same
// age profile, which is what makes runs of different seeds comparable.
const siteLife = 5 * time.Second

// runSegments drives an open loop at rate for d in consecutive segments of
// at most siteLife, each against a fresh site, and merges them.
func runSegments(o *options, rng *rand.Rand, rate float64, d time.Duration, refDigest string, tr *tracer) (*segment, error) {
	all := &segment{}
	for left := d; left > 0; left -= siteLife {
		seg, err := runSegment(o, rng, rate, min(left, siteLife), refDigest, tr)
		if err != nil {
			return nil, err
		}
		all.reads = append(all.reads, seg.reads...)
		all.zips = append(all.zips, seg.zips...)
		all.runDone = append(all.runDone, seg.runDone...)
		all.queueWait = append(all.queueWait, seg.queueWait...)
		all.lag = append(all.lag, seg.lag...)
		all.journalEvents = append(all.journalEvents, seg.journalEvents...)
		all.jBytes = append(all.jBytes, seg.jBytes...)
		all.attempted += seg.attempted
		all.failed += seg.failed
		for _, c := range seg.checks {
			if len(all.checks) < 20 {
				all.checks = append(all.checks, c)
			}
		}
		all.retained = max(all.retained, seg.retained)
		all.backlogGrew = all.backlogGrew || seg.backlogGrew
	}
	return all, nil
}

// ladderSteps is how many rates, doubling from the reference rate, the
// traced run climbs to find the sustained rate.
const ladderSteps = 5

// siteWorkload is site-mixed. Untraced, the whole run is an open loop at
// the reference rate, on a fresh site every siteLife. Traced, a quarter runs untraced and a
// quarter traced at the reference rate (their difference is the tracing
// overhead), and the second half climbs a rate ladder, doubling from the
// reference rate, one fresh site per step, to the last rate whose reads
// meet readLimitMS at the tail percentile without a growing backlog.
func siteWorkload(o *options, h siteHooks) (*report, error) {
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	rng := rand.New(rand.NewSource(o.seed))
	tr := &tracer{}
	if o.trace {
		materializeProbe(rep, tr, 5)
	}
	smp := startSampler()
	addSeg := func(s *segment) {
		rep.attempted += s.attempted
		rep.failed += s.failed
		for _, c := range s.checks {
			if len(rep.checks) < 20 {
				rep.checks = append(rep.checks, c)
			}
		}
	}
	refDur := o.duration
	if o.trace {
		refDur = o.duration / 4
	}
	ref, err := runSegments(o, rng, o.rate, refDur, h.refDigest, nil)
	if err != nil {
		return nil, err
	}
	addSeg(ref)
	reads, posts := o.steal.summarizeClean(rep, "op", ref.reads), o.steal.summarizeClean(rep, "aux", ref.runDone)
	rep.e2e["op_p50_ms"] = reads.P50
	rep.e2e["aux_p50_ms"] = posts.P50
	if posts.P50 > 0 {
		rep.e2e["cells_per_s"] = testbedCells / (posts.P50 / 1000)
	}
	rep.note("op  = one Figure-4 read at %g req/s, timed from due: %v", o.rate, reads)
	rep.note("aux = POST /runs due until its run completes: %v", posts)
	zips := o.steal.summarizeClean(rep, "zip", ref.zips)
	rep.note("benchmark.zip from due: p50 %.4g ms, n=%d; retained runs at the end: %d", zips.P50, zips.N, ref.retained)

	if o.trace {
		traced, err := runSegments(o, rng, o.rate, refDur, h.refDigest, tr)
		if err != nil {
			return nil, err
		}
		addSeg(traced)
		l := rep.layers
		tReads := o.steal.summarizeClean(rep, "traced op", traced.reads)
		l["trace.overhead_ms"] = tReads.P50 - reads.P50
		rep.note("tracing overhead: traced read p50 %.4g ms vs untraced %.4g ms", tReads.P50, reads.P50)
		rep.spans = tr.snapshot()
		l["website.read_handler_us"] = spanMeanUS(rep.spans, "website", kindRead.String())
		l["website.zip_ms"] = spanMeanUS(rep.spans, "website", kindZip.String()) / 1000
		l["website.post_runs_us"] = spanMeanUS(rep.spans, "website", kindPost.String())
		l["website.queue_wait_ms"] = mean(traced.queueWait)
		l["generator.lag_ms"] = mean(traced.lag)
		l["website.retained_runs"] = float64(traced.retained)
		l["journal.events_per_run"] = mean(traced.journalEvents)
		l["journal.bytes_per_run"] = mean(traced.jBytes)
		// What neither the queue nor the handler accounts for.
		_, l["trace.residual_us"], _ = runBreakdown(rep.spans, "site", "request", o.pool)

		step := (o.duration / 2) / ladderSteps
		rate := o.rate
		for k := 0; k < ladderSteps; k, rate = k+1, rate*2 {
			seg, err := runSegment(o, rng, rate, step, h.refDigest, nil)
			if err != nil {
				return nil, err
			}
			addSeg(seg)
			sr := o.steal.summarizeClean(rep, fmt.Sprintf("ladder %g", rate), seg.reads)
			ok := seg.failed == 0 && sr.Tail <= readLimitMS && !seg.backlogGrew
			rep.note("ladder %6g req/s: reads %v, backlog grew=%v -> sustained=%v", rate, sr, seg.backlogGrew, ok)
			if !ok {
				break
			}
			l["website.sustained_rps"] = rate
		}
	}
	heapMB, goroutines := smp.halt()
	rep.e2e["peak_heap_mb"] = heapMB
	rep.layers["runtime.goroutines_peak"] = float64(goroutines)
	return rep, nil
}
