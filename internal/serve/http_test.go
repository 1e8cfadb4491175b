package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func testHandler(t *testing.T, cfg Config, hc HandlerConfig) (*Server, http.Handler) {
	t.Helper()
	s, _ := newTestServer(t, cfg, 2, 10)
	return s, s.Handler(hc)
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPInfer(t *testing.T) {
	_, h := testHandler(t, Config{BatchSize: 2, QueueDepth: 8}, HandlerConfig{})
	imgs := serveImages(t, 1)
	want := goldenRuns(t, imgs, 10)
	w := postJSON(t, h, "/v1/infer", InferRequest{Input: imgs[0].Data()})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp InferResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prediction != want[0].Prediction {
		t.Fatalf("prediction %d, want %d", resp.Prediction, want[0].Prediction)
	}
	if len(resp.Output) != len(want[0].Output.Data()) {
		t.Fatalf("output size %d, want %d", len(resp.Output), len(want[0].Output.Data()))
	}
	if resp.BatchFill < 1 {
		t.Fatalf("batch fill %d, want >= 1", resp.BatchFill)
	}
}

func TestHTTPInferBadRequest(t *testing.T) {
	s, pool := newTestServer(t, Config{}, 2, 10)
	h := s.Handler(HandlerConfig{})
	for name, body := range map[string]InferRequest{
		"empty":     {},
		"bad-shape": {Input: []float64{1, 2, 3}, Shape: []int{2, 2}},
		"zero-dim":  {Input: []float64{1}, Shape: []int{0}},
		// Well-formed JSON the model cannot take: 2 values against a
		// 256-input MLP.
		"short": {Input: []float64{1, 2}},
		// 3·6148914691236517206 = 2⁶⁴+2 wraps to the input length.
		"overflow-shape": {Input: []float64{1, 2}, Shape: []int{3, 6148914691236517206}},
	} {
		w := postJSON(t, h, "/v1/infer", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", name, w.Code, w.Body.String())
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != "bad_request" {
			t.Fatalf("%s: kind %q, want bad_request", name, e.Kind)
		}
	}
	// A client's malformed input is not a replica fault.
	if st := pool.Stats(); st.Healthy != 2 || st.Suspect != 0 {
		t.Fatalf("pool after bad requests: %+v, want 2 healthy, 0 suspect", st)
	}
	// Method mapping.
	req := httptest.NewRequest(http.MethodGet, "/v1/infer", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: status %d, want 405", w.Code)
	}
}

func TestHTTPStream(t *testing.T) {
	_, h := testHandler(t, Config{BatchSize: 4, MaxDelay: 10 * time.Millisecond, QueueDepth: 16}, HandlerConfig{})
	imgs := serveImages(t, 3)
	want := goldenRuns(t, imgs, 10)
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, img := range imgs {
		if err := enc.Encode(InferRequest{Input: img.Data()}); err != nil {
			t.Fatal(err)
		}
	}
	// A line the model cannot take is answered inline as a bad request.
	// It comes last: its admission reserves a ticket, which would shift
	// the streams of any later line.
	if err := enc.Encode(InferRequest{Input: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer/stream", &in)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(imgs)+1 {
		t.Fatalf("%d response lines, want %d: %q", len(lines), len(imgs)+1, lines)
	}
	var bad ErrorResponse
	if err := json.Unmarshal([]byte(lines[len(imgs)]), &bad); err != nil || bad.Kind != "bad_request" {
		t.Fatalf("short line answered %q (err %v), want kind bad_request", lines[len(imgs)], err)
	}
	for i, line := range lines[:len(imgs)] {
		var resp InferResponse
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.Prediction != want[i].Prediction {
			t.Fatalf("line %d: prediction %d, want %d (stream order broken)", i, resp.Prediction, want[i].Prediction)
		}
	}
}

func TestHTTPHealthzAndDrain(t *testing.T) {
	s, h := testHandler(t, Config{}, HandlerConfig{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthy server: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	var hr HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Pool.Healthy != 2 {
		t.Fatalf("health %+v, want ok with 2 healthy", hr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", w.Code)
	}
	// Admission during drain maps to 503 with the typed kind.
	imgs := serveImages(t, 1)
	iw := postJSON(t, h, "/v1/infer", InferRequest{Input: imgs[0].Data()})
	if iw.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain infer: status %d, want 503", iw.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(iw.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "draining" {
		t.Fatalf("drain infer kind %q, want draining", e.Kind)
	}
}

func TestHTTPMetrics(t *testing.T) {
	rec := obs.NewServeRecorder()
	s, h := testHandler(t, Config{Rec: rec}, HandlerConfig{FleetRec: nil})
	imgs := serveImages(t, 1)
	if _, err := s.Infer(context.Background(), imgs[0]); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, series := range []string{
		"nebula_serve_requests_admitted_total 1",
		"nebula_serve_requests_served_total 1",
		"nebula_serve_batches_total 1",
		"nebula_serve_batch_fill_bucket",
		"nebula_serve_queue_depth 0",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q:\n%s", series, body)
		}
	}
}

func TestErrorStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		kind   string
	}{
		{ErrQueueFull, http.StatusTooManyRequests, "queue_full"},
		{ErrDraining, http.StatusServiceUnavailable, "draining"},
		{&DeadlineError{Stage: StageQueued, Err: context.DeadlineExceeded}, http.StatusGatewayTimeout, "deadline_queued"},
		{&DeadlineError{Stage: StageRunning, Err: context.Canceled}, http.StatusGatewayTimeout, "deadline_running"},
		{fleet.ErrExhausted, http.StatusServiceUnavailable, "exhausted"},
	} {
		status, kind := errorStatus(tc.err)
		if status != tc.status || kind != tc.kind {
			t.Fatalf("errorStatus(%v) = (%d, %q), want (%d, %q)", tc.err, status, kind, tc.status, tc.kind)
		}
	}
}

// FuzzServeDecode holds the request decoder to its contract on
// arbitrary bodies: decodeInput returns an error, or a tensor whose
// dims are all ≥ 1 and whose product, computed without overflow,
// equals the number of input values. It never panics.
func FuzzServeDecode(f *testing.F) {
	f.Add([]byte(`{"input":[1,2],"shape":[3,6148914691236517206]}`))
	f.Add([]byte(`{"input":[1,2,3,4],"shape":[2,2]}`))
	f.Add([]byte(`{"input":[0.5]}`))
	f.Add([]byte(`{"input":[1],"shape":[0]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req InferRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		x, err := decodeInput(req)
		if err != nil {
			return
		}
		n := 1
		for _, d := range x.Shape() {
			if d < 1 || n > math.MaxInt/d {
				t.Fatalf("shape %v accepted for %d values", x.Shape(), len(req.Input))
			}
			n *= d
		}
		if n != len(req.Input) {
			t.Fatalf("shape %v accepted for %d values", x.Shape(), len(req.Input))
		}
	})
}
