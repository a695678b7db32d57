package campaign

// The normalized benchmark schema: every BENCH_*.json file is a flat
// array of {benchmark, metric, value, unit, commit, seed} rows — one row
// per metric, so diffing is a join on (benchmark, metric) with no
// per-file shape knowledge. The reader also accepts the legacy schema
// ({package, name, iterations, ns_per_op, ...}) that earlier baselines
// were committed in, expanding each legacy object into rows, so old
// and new files diff against each other transparently.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// BenchRecord is one (benchmark, metric) row of a normalized bench file.
type BenchRecord struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Unit      string  `json:"unit,omitempty"`
	Commit    string  `json:"commit,omitempty"`
	Seed      uint64  `json:"seed"`
}

// ErrBadBenchFile reports a file in neither the normalized nor the
// legacy schema.
var ErrBadBenchFile = errors.New("campaign: unrecognized benchmark file schema")

// benchUnits maps metric names to their units and diff direction.
var benchUnits = map[string]struct {
	Unit         string
	HigherBetter bool
}{
	"ns_per_op":     {"ns/op", false},
	"p99_ns":        {"ns", false},
	"req_per_s":     {"req/s", true},
	"bytes_per_op":  {"B/op", false},
	"allocs_per_op": {"allocs/op", false},
}

// legacyBenchRow is the pre-normalization schema bench.sh used to emit.
type legacyBenchRow struct {
	Package     string   `json:"package"`
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     *float64 `json:"ns_per_op"`
	ReqPerS     *float64 `json:"req_per_s"`
	P99Ns       *float64 `json:"p99_ns"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// ReadBenchFile loads one benchmark file, auto-detecting the schema.
// Either way the records come back sorted by (benchmark, metric), each
// a metric benchUnits knows, in that metric's unit: a normalized file
// with any other row is not a bench file this package can diff.
func ReadBenchFile(path string) ([]BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Try the normalized schema first; a legacy array decodes into it as
	// rows with empty Benchmark/Metric, which we treat as a miss.
	var recs []BenchRecord
	if err := json.Unmarshal(data, &recs); err == nil && normalized(recs) {
		for i := range recs {
			recs[i].Unit = benchUnits[recs[i].Metric].Unit
		}
		sortBench(recs)
		return recs, nil
	}
	var legacy []legacyBenchRow
	if err := json.Unmarshal(data, &legacy); err != nil || len(legacy) == 0 || legacy[0].Name == "" {
		return nil, fmt.Errorf("%w: %s", ErrBadBenchFile, path)
	}
	var out []BenchRecord
	for _, row := range legacy {
		name := row.Name
		if row.Package != "" {
			if i := strings.LastIndex(row.Package, "/"); i >= 0 {
				name = row.Package[i+1:] + "/" + name
			}
		}
		for metric, v := range map[string]*float64{
			"ns_per_op":     row.NsPerOp,
			"req_per_s":     row.ReqPerS,
			"p99_ns":        row.P99Ns,
			"bytes_per_op":  row.BytesPerOp,
			"allocs_per_op": row.AllocsPerOp,
		} {
			if v == nil {
				continue
			}
			out = append(out, BenchRecord{Benchmark: name, Metric: metric, Value: *v, Unit: benchUnits[metric].Unit})
		}
	}
	sortBench(out)
	return out, nil
}

// normalized reports whether decoded rows carry the normalized schema's
// required fields, each a known metric in its own unit or in none (the
// unit is optional; the reader fills it in).
func normalized(recs []BenchRecord) bool {
	if len(recs) == 0 {
		return false
	}
	for _, r := range recs {
		u, known := benchUnits[r.Metric]
		if r.Benchmark == "" || !known || (r.Unit != "" && r.Unit != u.Unit) {
			return false
		}
	}
	return true
}

// sortBench orders records by (benchmark, metric), keeping file order
// among duplicates.
func sortBench(recs []BenchRecord) {
	sort.SliceStable(recs, func(i, j int) bool { return benchKeyLess(recs[i], recs[j]) })
}

// benchKeyLess orders records by benchmark, then metric.
func benchKeyLess(a, b BenchRecord) bool {
	if a.Benchmark != b.Benchmark {
		return a.Benchmark < b.Benchmark
	}
	return a.Metric < b.Metric
}

// BenchDelta is one (benchmark, metric) comparison.
type BenchDelta struct {
	Benchmark  string  `json:"benchmark"`
	Metric     string  `json:"metric"`
	Base       float64 `json:"base"`
	Cand       float64 `json:"cand"`
	Ratio      float64 `json:"ratio"` // cand/base
	Regression bool    `json:"regression,omitempty"`
}

// BenchDiffReport compares two bench files.
type BenchDiffReport struct {
	Deltas        []BenchDelta `json:"deltas"`
	MissingInCand []string     `json:"missing_in_cand,omitempty"`
	Regressions   int          `json:"regressions"`
}

// DiffBench joins two record sets on (benchmark, metric). tolerance is
// the fractional slack before a worse ratio counts as a regression
// (e.g. 0.25 allows a 25% slowdown — micro-benchmarks on shared CI
// machines are noisy).
func DiffBench(base, cand []BenchRecord, tolerance float64) *BenchDiffReport {
	key := func(r BenchRecord) string { return r.Benchmark + "\x00" + r.Metric }
	candBy := map[string]BenchRecord{}
	for _, r := range cand {
		candBy[key(r)] = r
	}
	rep := &BenchDiffReport{}
	for _, b := range base {
		c, ok := candBy[key(b)]
		if !ok {
			rep.MissingInCand = append(rep.MissingInCand, b.Benchmark+" "+b.Metric)
			continue
		}
		d := BenchDelta{Benchmark: b.Benchmark, Metric: b.Metric, Base: b.Value, Cand: c.Value}
		if b.Value != 0 {
			d.Ratio = c.Value / b.Value
		} else if c.Value == 0 {
			d.Ratio = 1
		} else {
			d.Ratio = math.Inf(1)
		}
		dir := benchUnits[b.Metric]
		worse := (dir.HigherBetter && d.Ratio < 1-tolerance) || (!dir.HigherBetter && d.Ratio > 1+tolerance)
		if worse {
			d.Regression = true
			rep.Regressions++
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

// String renders the bench comparison.
func (r *BenchDiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-56s %-14s %12s %12s %8s  %s\n", "benchmark", "metric", "base", "cand", "ratio", "verdict")
	for _, d := range r.Deltas {
		verdict := "ok"
		if d.Regression {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(&b, "%-56s %-14s %12.4g %12.4g %8.3f  %s\n", d.Benchmark, d.Metric, d.Base, d.Cand, d.Ratio, verdict)
	}
	for _, m := range r.MissingInCand {
		fmt.Fprintf(&b, "MISSING in candidate: %s\n", m)
	}
	fmt.Fprintf(&b, "%d regression(s)\n", r.Regressions)
	return b.String()
}
