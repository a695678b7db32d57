package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBenchFile: any file either fails to read or yields records
// sorted by (benchmark, metric) whose metric and unit are ones bench-diff
// knows how to compare, in either schema.
func FuzzReadBenchFile(f *testing.F) {
	f.Add([]byte(`[{"benchmark":"dist/BenchmarkRPCRoundTrip","metric":"ns_per_op","value":7790,"unit":"ns/op","commit":"0beda78","seed":0},
  {"benchmark":"dist/BenchmarkRPCRoundTrip","metric":"allocs_per_op","value":1,"unit":"allocs/op","commit":"0beda78","seed":0}]`))
	f.Add([]byte(`[{"package":"github.com/x/dist","name":"BenchmarkQuorum","iterations":10,"ns_per_op":25.5,"allocs_per_op":11,"bytes_per_op":1251}]`))
	f.Add([]byte(`[{"benchmark":"b","metric":"furlongs","value":1,"unit":"ft"}]`))
	f.Add([]byte(`[{"benchmark":"b","metric":"ns_per_op","value":1,"unit":"allocs/op"}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[{"name":"x"}]`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "bench.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadBenchFile(path)
		if err != nil {
			return
		}
		for i, r := range recs {
			u, ok := benchUnits[r.Metric]
			if !ok || r.Unit != u.Unit {
				t.Fatalf("record %d: metric %q in unit %q, want a known metric in its own unit", i, r.Metric, r.Unit)
			}
			if i > 0 && benchKeyLess(r, recs[i-1]) {
				t.Fatalf("records %d and %d out of order: %s/%s before %s/%s", i-1, i, recs[i-1].Benchmark, recs[i-1].Metric, r.Benchmark, r.Metric)
			}
		}
	})
}
