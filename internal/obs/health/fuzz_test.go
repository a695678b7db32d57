package health

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// FuzzReadTraces: ReadTraces reads trace exports an operator hands to
// the replay engine, so any input either errors or decodes into traces
// that re-encode and re-read to the same traces: what it accepts is
// something the recorder's own export could have said.
func FuzzReadTraces(f *testing.F) {
	export, err := json.Marshal([]obs.Trace{{
		ID: 3, Executor: "nvp", Start: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
		Latency: 1500, Outcome: obs.OutcomeMasked.String(), Accepted: true, FailureDetected: true,
		Variants: []obs.VariantSpan{{Variant: "v1", Latency: 700}, {Variant: "v2", Latency: 900, Err: "boom"}},
		Events:   []obs.TraceEvent{{Kind: "rollback"}, {Kind: "component-disabled", Detail: "v2"}},
		TraceID:  0xfeed, SpanID: 0xbeef, ParentSpanID: 0xcafe,
		Attempts: []obs.AttemptSpan{{Endpoint: "r1", SpanID: 9, Attempt: 1, Latency: 40, Won: true}, {Endpoint: "r2", Attempt: 2, Cancelled: true}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(export)
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"id":1,"variants":[],"start":"2026-01-01T00:00:00+23:59"}]`))
	f.Add([]byte(`[{"executor":"\xffé","latency_ns":-1}] trailing`))
	f.Add([]byte(`{"id":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := ReadTraces(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := json.Marshal(traces)
		if err != nil {
			t.Fatalf("accepted traces do not re-encode: %v", err)
		}
		again, err := ReadTraces(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded traces do not re-read: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-read traces do not re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("traces changed across a re-encode:\n%s\n%s", first, second)
		}
	})
}
