// Quickstart: N-version programming with majority voting.
//
// Three "independently developed" implementations of the same scoring
// function execute in parallel on every request; a majority vote masks
// the wrong results of the buggy version. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	redundancy "github.com/softwarefaults/redundancy"
)

// score computes a shipping fee from a parcel weight. The three versions
// below implement the same specification: base fee 5, plus 2 per kg, with
// a cap at 50.
func versions() []redundancy.Variant[int, int] {
	v1 := redundancy.NewVariant("fee-lookup", func(_ context.Context, kg int) (int, error) {
		fee := 5 + 2*kg
		if fee > 50 {
			fee = 50
		}
		return fee, nil
	})
	v2 := redundancy.NewVariant("fee-iterative", func(_ context.Context, kg int) (int, error) {
		fee := 5
		for i := 0; i < kg; i++ {
			fee += 2
		}
		return min(fee, 50), nil
	})
	// The buggy third version forgets the cap — a deterministic
	// development fault with a well-defined failure region (kg > 22).
	v3 := redundancy.NewVariant("fee-uncapped-buggy", func(_ context.Context, kg int) (int, error) {
		return 5 + 2*kg, nil
	})
	return []redundancy.Variant[int, int]{v1, v2, v3}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	collector := redundancy.NewCollector()
	system, err := redundancy.NewNVersion(versions(), redundancy.EqualOf[int](),
		redundancy.WithObserver(collector))
	if err != nil {
		return err
	}
	fmt.Printf("3-version system tolerates %d faulty version(s) per request\n\n",
		system.TolerableFaults())

	ctx := context.Background()
	for _, kg := range []int{1, 10, 22, 23, 40} {
		fee, err := system.Execute(ctx, kg)
		if err != nil {
			return fmt.Errorf("vote failed for %d kg: %w", kg, err)
		}
		fmt.Printf("%2d kg -> fee %2d", kg, fee)
		if kg > 22 {
			fmt.Printf("   (buggy version said %d; outvoted)", 5+2*kg)
		}
		fmt.Println()
	}

	s := collector.Executor("parallel-evaluation")
	fmt.Printf("\n%d requests, %.0f executions/request, reliability %.2f\n",
		s.Requests, s.ExecutionsPerRequest(), s.Reliability())
	return nil
}
