package main

import (
	"fmt"
	"io"
	"math"
)

// set is one full pass: every workload's untraced repeats and its one
// traced run, and the isolated layer timings, which no workload enters
// into and which the set therefore takes once, itself.
type set struct {
	timings  map[string][]result // workload → ungated timings of the untraced runs, in run order
	gated    map[string][]result // workload → gated metrics of the same runs
	layers   map[string]result   // workload → traced result
	isolated map[string]float64
}

// runSet makes the runs of one set, each in a fresh child process.
// Repeats are interleaved round-robin across workloads, so a slow
// minute on the shared machine lands on every workload's repeat k
// rather than on all repeats of one workload.
func runSet(o options) (set, error) {
	s := set{timings: map[string][]result{}, gated: map[string][]result{}, layers: map[string]result{}}
	repeats := setRepeats
	if o.quick {
		repeats = 1
	}
	for r := 0; r < repeats; r++ {
		for _, w := range workloads {
			lines, err := child(o, w.name, 0)
			if err != nil {
				return s, err
			}
			s.timings[w.name] = append(s.timings[w.name], lines[0])
			s.gated[w.name] = append(s.gated[w.name], lines[1])
		}
	}
	for _, w := range workloads {
		lines, err := child(o, w.name, 1)
		if err != nil {
			return s, err
		}
		s.layers[w.name] = lines[0]
	}
	var err error
	if s.isolated, err = isolated(); err != nil {
		return s, fmt.Errorf("isolated layer timings: %w", err)
	}
	return s, nil
}

// values lists one metric across repeats, with the request counts to
// weight it by.
func values(repeats []result, metric string) (vals, attempted []float64) {
	for _, r := range repeats {
		vals = append(vals, r.Metrics[metric].Value)
		attempted = append(attempted, float64(r.Attempted))
	}
	return vals, attempted
}

// summary is the figure a set reports for one metric over a workload's
// repeats: per-request counts are pooled over the repeats' requests,
// everything else is the median repeat.
func summary(repeats []result, d metricDef) float64 {
	vals, attempted := values(repeats, d.name)
	if d.unit == "count" || d.unit == "KiB" {
		totals := make([]float64, len(vals))
		for i := range vals {
			totals[i] = vals[i] * attempted[i]
		}
		return pooled(totals, attempted)
	}
	return median(vals)
}

func (s set) print(out io.Writer) {
	fmt.Fprintln(out, "\nend-to-end (tracing off): median repeat, counts pooled; best repeat; every repeat")
	for _, w := range workloads {
		var attempted, failed int64
		for _, r := range s.gated[w.name] {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(out, "%s: failed_share %g ratio (%d of %d)\n", w.name, ratio(float64(failed), float64(attempted)), failed, attempted)
		row := func(repeats []result, d metricDef, note string) {
			vals, _ := values(repeats, d.name)
			fmt.Fprintf(out, "  %-18s %12.4f %-6s best %12.4f  %s%s\n", d.name, summary(repeats, d), d.unit, best(vals, d.higher), series(vals), note)
		}
		for _, d := range endToEnd {
			row(s.gated[w.name], d, "")
		}
		for _, d := range demoted {
			row(s.timings[w.name], d, "  (ungated)")
		}
		tp, _ := values(s.timings[w.name], "throughput_rps")
		fmt.Fprintf(out, "  %-18s %12.4f ratio\n", "repeat_spread", spread(tp))
	}
	fmt.Fprintln(out, "\nper-layer (tracing on, one run per workload)")
	fmt.Fprintf(out, "  %-30s %-6s", "", "")
	for _, w := range workloads {
		fmt.Fprintf(out, " %18s", w.name)
	}
	fmt.Fprintln(out)
	for _, d := range perLayerRun {
		fmt.Fprintf(out, "  %-30s %-6s", d.name, d.unit)
		for _, w := range workloads {
			fmt.Fprintf(out, " %18.4f", s.layers[w.name].Metrics[d.name].Value)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "\nper-layer, isolated (one layer's public functions alone, one goroutine)")
	printMetrics(out, perLayerIsolated, s.isolated)
}

// worsening is how far b is worse than a, as a share of a, for a metric
// of the given direction; negative when b is better.
func worsening(a, b float64, higher bool) float64 {
	if a == 0 {
		return 0
	}
	if higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAgreement compares two sets of the same code, gated metric by
// gated metric and workload by workload, and returns an error if either
// is worse than the other by more than the metric's bound (and, where
// the metric has one, by more than its absolute floor).
func printAgreement(out io.Writer, first, second set) error {
	fmt.Fprintln(out, "\nagreement of two sets of the same code: second vs first, positive = second worse")
	fmt.Fprintf(out, "  %-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	disagree := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := summary(first.gated[w.name], d), summary(second.gated[w.name], d)
			diff := worsening(a, b, d.higher)
			mark := ""
			if math.Abs(diff) > d.bound && math.Abs(b-a) > d.floor {
				mark = "  DISAGREE"
				disagree++
			}
			fmt.Fprintf(out, "  %-18s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric × workload pairs differ by more than their bound between two sets of the same code", disagree)
	}
	return nil
}
