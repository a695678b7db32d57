package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// observeOneRequest drives one masked request through an observer.
func observeOneRequest(o Observer, executor string) {
	req := NextRequestID()
	o.RequestStart(executor, req)
	o.VariantStart(executor, "v1", req)
	o.VariantEnd(executor, "v1", req, time.Millisecond, nil)
	o.VariantStart(executor, "v2", req)
	o.VariantEnd(executor, "v2", req, 2*time.Millisecond, errors.New("boom"))
	o.Adjudicated(executor, req, true, true)
	o.RequestEnd(executor, req, 3*time.Millisecond, OutcomeMasked)
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestHandlerEndpoints(t *testing.T) {
	c := NewCollector()
	tr := NewTraceRecorder(8)
	observeOneRequest(Combine(c, tr), "parallel-evaluation")

	srv := httptest.NewServer(Handler(c, tr))
	defer srv.Close()

	metrics, ctype := get(t, srv, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		`redundancy_requests_total{executor="parallel-evaluation"} 1`,
		`redundancy_failures_masked_total{executor="parallel-evaluation"} 1`,
		`redundancy_failures_detected_total{executor="parallel-evaluation"} 1`,
		`redundancy_variant_executions_total{executor="parallel-evaluation",variant="v1"} 1`,
		`redundancy_variant_failures_total{executor="parallel-evaluation",variant="v2"} 1`,
		`redundancy_request_latency_seconds{executor="parallel-evaluation",quantile="0.5"}`,
		`redundancy_variant_latency_seconds{executor="parallel-evaluation",variant="v2",quantile="0.99"}`,
		`redundancy_request_latency_seconds_count{executor="parallel-evaluation"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	vars, ctype := get(t, srv, "/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/vars content type = %q", ctype)
	}
	var doc struct {
		Executors []ExecutorSnapshot `json:"executors"`
	}
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if len(doc.Executors) != 1 || doc.Executors[0].Requests != 1 {
		t.Errorf("/vars = %+v", doc)
	}

	traces, _ := get(t, srv, "/traces")
	var ts []Trace
	if err := json.Unmarshal([]byte(traces), &ts); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(ts) != 1 || ts[0].Executor != "parallel-evaluation" || len(ts[0].Variants) != 2 {
		t.Errorf("/traces = %+v", ts)
	}
}

func TestHandlerNilCollectors(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	if body, _ := get(t, srv, "/metrics"); body != "" {
		t.Errorf("/metrics on nil collector = %q", body)
	}
	if body, _ := get(t, srv, "/traces"); strings.TrimSpace(body) != "[]" {
		t.Errorf("/traces on nil recorder = %q", body)
	}
	body, _ := get(t, srv, "/vars")
	if !strings.Contains(body, "executors") {
		t.Errorf("/vars on nil collector = %q", body)
	}
}

func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\"b\\c\nd")
	if got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestCollectorVar(t *testing.T) {
	c := NewCollector()
	observeOneRequest(c, "single")
	s := c.Var().String()
	if !strings.Contains(s, `"single"`) {
		t.Errorf("expvar output missing executor: %s", s)
	}
}
