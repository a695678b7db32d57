package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Extra is an additional observation endpoint mounted by Handler.
// Higher observation layers (e.g. the health diagnosis engine in
// obs/health) use it to join the standard endpoint set without obs
// depending on them. Path and Handler mount an extra route; Prometheus,
// if non-nil, appends extra series to the /metrics exposition.
type Extra struct {
	// Path is the route to mount Handler on (e.g. "/healthz").
	Path string
	// Handler serves the extra endpoint; ignored when nil.
	Handler http.Handler
	// Prometheus appends extra series to the /metrics document.
	Prometheus func(io.Writer)
}

// Handler returns an HTTP handler exposing the observation layer:
//
//	/metrics  Prometheus text format: counters plus p50/p90/p99 latency
//	          summaries per executor and per variant
//	/vars     the same data as one JSON document (expvar-style)
//	/traces   the TraceRecorder ring as a JSON array, most recent first
//
// Either collector argument may be nil; the corresponding endpoints then
// serve empty documents. Extras mount additional endpoints (and extend
// the /metrics document) on the same handler. The handler is safe to
// serve while executors are running — all reads go through the
// collectors' concurrent snapshots.
func Handler(c *Collector, tr *TraceRecorder, extras ...Extra) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, c)
		for _, x := range extras {
			if x.Prometheus != nil {
				x.Prometheus(w)
			}
		}
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		var snap []ExecutorSnapshot
		if c != nil {
			snap = c.Snapshot()
		}
		_ = enc.Encode(map[string]any{"executors": snap})
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if tr == nil {
			_, _ = io.WriteString(w, "[]\n")
			return
		}
		_ = tr.WriteJSON(w)
	})
	for _, x := range extras {
		if x.Path != "" && x.Handler != nil {
			mux.Handle(x.Path, x.Handler)
		}
	}
	return mux
}

// Var adapts the collector to an expvar.Var, for callers that prefer
// registering it on the standard expvar page:
//
//	expvar.Publish("redundancy", collector.Var())
func (c *Collector) Var() expvar.Var {
	return expvar.Func(func() any { return c.Snapshot() })
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// WritePrometheus writes the collector's state in the Prometheus text
// exposition format. Latencies are exported as summaries in seconds with
// quantiles 0.5, 0.9 and 0.99.
func WritePrometheus(w io.Writer, c *Collector) {
	if c == nil {
		return
	}
	snap := c.Snapshot()
	if len(snap) == 0 {
		return
	}

	for id := cRequests; id < nCounters; id++ {
		row := &counterRows[id]
		typ := "counter"
		if row.gauge {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", row.series, row.help, row.series, typ)
		for i := range snap {
			fmt.Fprintf(w, "%s{executor=%q} %d\n", row.series, escapeLabel(snap[i].Executor), *row.field(&snap[i]))
		}
	}

	fmt.Fprint(w, "# HELP redundancy_request_latency_seconds Request latency per executor.\n")
	fmt.Fprint(w, "# TYPE redundancy_request_latency_seconds summary\n")
	for _, e := range snap {
		writeSummary(w, "redundancy_request_latency_seconds",
			fmt.Sprintf("executor=%q", escapeLabel(e.Executor)), e.Latency)
	}

	// The MTTR summary carries real samples only for supervisors; series
	// for executors that never restarted anything would be all-zero noise,
	// so they are skipped.
	fmt.Fprint(w, "# HELP redundancy_mttr_seconds Supervised-restart recovery time (failure to ready) per supervisor.\n")
	fmt.Fprint(w, "# TYPE redundancy_mttr_seconds summary\n")
	for _, e := range snap {
		if e.MTTR.Count == 0 {
			continue
		}
		writeSummary(w, "redundancy_mttr_seconds",
			fmt.Sprintf("executor=%q", escapeLabel(e.Executor)), e.MTTR)
	}

	fmt.Fprint(w, "# HELP redundancy_variant_executions_total Variant executions per executor and variant.\n")
	fmt.Fprint(w, "# TYPE redundancy_variant_executions_total counter\n")
	for _, e := range snap {
		for _, v := range e.Variants {
			fmt.Fprintf(w, "redundancy_variant_executions_total{executor=%q,variant=%q} %d\n",
				escapeLabel(e.Executor), escapeLabel(v.Variant), v.Executions)
		}
	}
	fmt.Fprint(w, "# HELP redundancy_variant_failures_total Failed variant executions per executor and variant.\n")
	fmt.Fprint(w, "# TYPE redundancy_variant_failures_total counter\n")
	for _, e := range snap {
		for _, v := range e.Variants {
			fmt.Fprintf(w, "redundancy_variant_failures_total{executor=%q,variant=%q} %d\n",
				escapeLabel(e.Executor), escapeLabel(v.Variant), v.Failures)
		}
	}
	fmt.Fprint(w, "# HELP redundancy_variant_latency_seconds Variant execution latency per executor and variant.\n")
	fmt.Fprint(w, "# TYPE redundancy_variant_latency_seconds summary\n")
	for _, e := range snap {
		for _, v := range e.Variants {
			writeSummary(w, "redundancy_variant_latency_seconds",
				fmt.Sprintf("executor=%q,variant=%q", escapeLabel(e.Executor), escapeLabel(v.Variant)),
				v.Latency)
		}
	}
}

// writeSummary writes one Prometheus summary series from a histogram
// snapshot.
func writeSummary(w io.Writer, name, labels string, h HistogramSnapshot) {
	for _, q := range []struct {
		q string
		v float64
	}{
		{"0.5", h.P50.Seconds()},
		{"0.9", h.P90.Seconds()},
		{"0.99", h.P99.Seconds()},
	} {
		fmt.Fprintf(w, "%s{%s,quantile=%q} %g\n", name, labels, q.q, q.v)
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum.Seconds())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
}
