package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenExperimentOutputs pins the experiments that run on the
// technique packages' executors byte for byte at seed 1. A file holds
// the experiment's tables as cmd/experiments prints them, without the
// five header lines; regenerate one with
//
//	go run ./cmd/experiments -run fig1 -seed 1 | tail -n +6 > internal/sim/testdata/fig1.txt
func TestGoldenExperimentOutputs(t *testing.T) {
	for _, id := range []string{"fig1", "datadiversity", "perturbation", "costs", "faultmatrix"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, tbl := range runExperiment(t, id, 1) {
				got.WriteString(tbl)
				got.WriteString("\n")
			}
			if got.String() != string(want) {
				t.Errorf("%s at seed 1 differs from testdata/%s.txt\ngot:\n%s\nwant:\n%s", id, id, got.String(), want)
			}
		})
	}
}
