package website

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"thalia/internal/explain"
)

// decodeTraces fetches /debug/traces with the given query and decodes it.
func decodeTraces(t *testing.T, h http.Handler, query string) []explain.Trace {
	t.Helper()
	rec, body := get(t, h, "/debug/traces"+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces%s: %d", query, rec.Code)
	}
	var v struct {
		Traces []explain.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	return v.Traces
}

// One request carries one ID everywhere: the X-Request-ID and X-Trace-ID
// response headers, the access log's id, and the /debug/traces trace_id.
func TestRequestIDIsTraceID(t *testing.T) {
	s := New()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h := s.Handler()
	rec, _ := get(t, h, "/catalogs")

	var line struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log %q: %v", logBuf.String(), err)
	}
	traces := decodeTraces(t, h, "?n=1")
	if len(traces) != 1 || traces[0].Root == nil {
		t.Fatalf("traces = %+v, want the /catalogs request", traces)
	}
	reqID := rec.Header().Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("missing X-Request-ID")
	}
	for name, got := range map[string]string{
		"X-Trace-ID":          rec.Header().Get("X-Trace-ID"),
		"access log id":       line.ID,
		"/debug/traces trace": traces[0].TraceID,
	} {
		if got != reqID {
			t.Errorf("%s = %q, want the request ID %q", name, got, reqID)
		}
	}
	root := traces[0].Root
	if root.Kind != explain.KindRequest || root.Name != "GET /catalogs" || traces[0].Start.IsZero() {
		t.Errorf("request trace = %+v (start %v)", root, traces[0].Start)
	}
	want := map[string]string{"path": "/catalogs", "status": "200"}
	for _, a := range root.Attrs {
		if want[a.Key] == a.Value {
			delete(want, a.Key)
		}
	}
	if len(want) != 0 {
		t.Errorf("request span attrs = %v, missing %v", root.Attrs, want)
	}
}

// The ring keeps the newest traceCapacity request traces, newest first,
// and ?n=K returns the K newest.
func TestDebugTracesEviction(t *testing.T) {
	h := New().Handler()
	var ids []string
	for i := 0; i < traceCapacity+5; i++ {
		rec, _ := get(t, h, "/healthz")
		ids = append(ids, rec.Header().Get("X-Request-ID"))
	}
	traces := decodeTraces(t, h, "?n=1000")
	if len(traces) != traceCapacity {
		t.Fatalf("ring holds %d traces, want %d", len(traces), traceCapacity)
	}
	for i, tr := range traces {
		if want := ids[len(ids)-1-i]; tr.TraceID != want {
			t.Fatalf("traces[%d] = %s, want %s (newest first, oldest evicted)", i, tr.TraceID, want)
		}
	}
	// The listing request above is now the newest trace.
	newest := decodeTraces(t, h, "?n=2")
	if len(newest) != 2 || newest[0].Root.Name != "GET /debug/traces" || newest[1].TraceID != ids[len(ids)-1] {
		t.Errorf("?n=2 = %+v, want the listing request then %s", newest, ids[len(ids)-1])
	}
}

// Concurrent requests and /debug/traces reads share the ring safely (run
// under -race), and the ring ends full of distinct request traces.
func TestDebugTracesConcurrent(t *testing.T) {
	h := New().Handler()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				path := "/healthz"
				if i%5 == 0 {
					path = "/debug/traces?n=10"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: %d", path, rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	traces := decodeTraces(t, h, "?n=1000")
	if len(traces) != traceCapacity {
		t.Fatalf("ring holds %d traces, want %d", len(traces), traceCapacity)
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if tr.Root == nil || tr.Root.Kind != explain.KindRequest || seen[tr.TraceID] {
			t.Fatalf("bad or duplicate trace %+v", tr)
		}
		seen[tr.TraceID] = true
	}
}
