package website

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"thalia/internal/explain"
	"thalia/internal/telemetry"
)

// HTTP metric names, as they appear in /metrics.
const (
	// MetricHTTPRequests counts finished requests per route and status
	// code.
	MetricHTTPRequests = "http_requests_total"
	// MetricHTTPLatency is the per-route request latency histogram.
	MetricHTTPLatency = "http_request_seconds"
	// MetricHTTPPanics counts handler panics converted to 500s by the
	// recovery middleware.
	MetricHTTPPanics = "http_panics_total"
	// MetricHTTPInFlight gauges requests currently being served.
	MetricHTTPInFlight = "http_in_flight"
)

// middleware wraps a handler with one cross-cutting concern.
type middleware func(http.Handler) http.Handler

// chain applies middlewares so that the first listed is the outermost.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter captures the response status code (and whether a body write
// already implied 200) so logging and metrics middleware can see it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so SSE streaming (/runs/{id}/events)
// works through the middleware stack: every nesting level keeps the
// http.Flusher interface visible.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the effective status code (200 if the handler never wrote).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// routeLabel normalizes a request path to a bounded set of route labels so
// per-route metric series stay low-cardinality: parameterized pages map to
// :name patterns, and anything outside the site's route table (scans, 404
// probes) collapses into "unmatched".
func routeLabel(path string) string {
	switch path {
	case "/", "/catalogs", "/browse", "/queries", "/scores", "/run-benchmark",
		"/honor-roll", "/runs", "/metrics", "/healthz", "/debug/traces", "/debug/explain",
		"/download/catalogs.zip", "/download/benchmark.zip", "/download/solutions.zip":
		return path
	}
	switch {
	case len(path) > len("/catalogs/") && path[:len("/catalogs/")] == "/catalogs/":
		return "/catalogs/:name"
	case len(path) > len("/browse/") && path[:len("/browse/")] == "/browse/":
		return "/browse/:name"
	case len(path) > len("/schema/") && path[:len("/schema/")] == "/schema/":
		return "/schema/:name"
	case strings.HasPrefix(path, "/runs/"):
		switch {
		case strings.HasSuffix(path, "/events"):
			return "/runs/:id/events"
		case strings.HasSuffix(path, "/report"):
			return "/runs/:id/report"
		}
		return "/runs/:id"
	}
	return "unmatched"
}

// requestID stamps every request with a process-local sequential ID,
// exposed as the X-Request-ID response header and reused by the access log
// and, as the trace ID, by the request's trace, so one request can be
// followed across log lines, traces and clients.
func (s *Site) requestID() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := fmt.Sprintf("r%08d", s.nextReqID.Add(1))
			w.Header().Set("X-Request-ID", id)
			r.Header.Set("X-Request-ID", id)
			next.ServeHTTP(w, r)
		})
	}
}

// accessLog emits one structured record per finished request: request ID,
// method, path, normalized route, status and duration. Through SetLogger's
// legacy adapter this renders as the historical one-line format.
func (s *Site) accessLog() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, logMsgRequest,
				slog.String("id", r.Header.Get("X-Request-ID")),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", routeLabel(r.URL.Path)),
				slog.Int("status", sw.status()),
				slog.Duration("duration", time.Since(start)))
		})
	}
}

// httpMetrics records per-route latency and status counts into the site
// registry, and the request as a one-span explain trace into the site's
// trace ring.
func (s *Site) httpMetrics() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := routeLabel(r.URL.Path)
			inFlight := s.metrics.Gauge(MetricHTTPInFlight)
			inFlight.Inc()
			rec := explain.NewRecorder()
			span := rec.Begin(explain.KindRequest, r.Method+" "+route, explain.A("path", r.URL.Path))
			// The trace ID is the request ID, and it travels both ways:
			// clients see it on the response, downstream handlers
			// (/debug/explain) read it from the request to link their
			// explain traces to this one.
			id := r.Header.Get("X-Request-ID")
			rec.SetTraceID(id)
			w.Header().Set("X-Trace-ID", id)
			r.Header.Set("X-Trace-ID", id)
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			d := time.Since(start)
			inFlight.Dec()
			span.With("status", strconv.Itoa(sw.status())).End()
			s.traces.push(rec.Trace())
			s.metrics.Counter(MetricHTTPRequests,
				telemetry.L("route", route), telemetry.L("code", strconv.Itoa(sw.status()))).Inc()
			s.metrics.Histogram(MetricHTTPLatency, telemetry.L("route", route)).ObserveDuration(d)
		})
	}
}

// traceCapacity is how many request traces the site keeps for
// /debug/traces.
const traceCapacity = 128

// traceRing keeps the site's most recent request traces; older ones are
// overwritten.
type traceRing struct {
	mu     sync.Mutex
	buf    [traceCapacity]*explain.Trace
	pushed int // total traces ever pushed; the next slot is pushed % traceCapacity
}

func (t *traceRing) push(tr *explain.Trace) {
	t.mu.Lock()
	t.buf[t.pushed%traceCapacity] = tr
	t.pushed++
	t.mu.Unlock()
}

// recent returns up to n traces, newest first.
func (t *traceRing) recent(n int) []*explain.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n = min(n, t.pushed, traceCapacity)
	out := make([]*explain.Trace, n)
	for i := range out {
		out[i] = t.buf[(t.pushed-1-i)%traceCapacity]
	}
	return out
}

// recoverPanics converts a handler panic into a 500 response and a
// MetricHTTPPanics increment instead of killing the connection (and, under
// http.Server, leaving a one-line stack in the server log).
func (s *Site) recoverPanics() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					s.metrics.Counter(MetricHTTPPanics).Inc()
					s.logger.LogAttrs(r.Context(), slog.LevelError, logMsgPanic,
						slog.String("id", r.Header.Get("X-Request-ID")),
						slog.String("method", r.Method),
						slog.String("path", r.URL.Path),
						slog.Any("value", v))
					http.Error(w, "internal server error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Metrics returns the site's metrics registry — shared by the HTTP
// middleware and the server-side benchmark runs, and exposed at /metrics.
func (s *Site) Metrics() *telemetry.Registry { return s.metrics }
