package pattern

// Tests of the parallel launch and admission path: the first attempt
// runs on the caller's goroutine, a variant inherits the request's
// context unless its own deadline is tighter, and a caller context
// with no Done is bounded by a lazy deadline. Run with -race -count=20.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/resilience"
)

// firstError adjudicates to the first variant's error, so the request's
// error is what the variant on the caller's goroutine saw.
func firstError() core.Adjudicator[int] {
	return core.AdjudicatorFunc[int](func(rs []core.Result[int]) (int, error) {
		return rs[0].Value, rs[0].Err
	})
}

// hangs returns n variants that wait for their context to end and count
// how many are running.
func hangs(n int, running *atomic.Int32, entered chan<- struct{}) []core.Variant[int, int] {
	vs := make([]core.Variant[int, int], n)
	for i := range vs {
		vs[i] = core.NewVariant(fmt.Sprintf("hang%d", i), func(ctx context.Context, _ int) (int, error) {
			running.Add(1)
			defer running.Add(-1)
			if entered != nil {
				entered <- struct{}{}
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	}
	return vs
}

// TestVariantDeadlineTighterThanRequest: the variant deadline bounds
// every variant, the one on the caller's goroutine included, well
// before the request deadline; with a caller that cannot be cancelled
// the variants' contexts derive from the lazy request deadline.
func TestVariantDeadlineTighterThanRequest(t *testing.T) {
	for _, caller := range []string{"background", "cancellable"} {
		t.Run(caller, func(t *testing.T) {
			ctx := context.Background()
			if caller == "cancellable" {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			var running atomic.Int32
			pe, err := NewParallelEvaluation(hangs(3, &running, nil), firstError(),
				WithDeadline(resilience.DeadlinePolicy{Request: time.Second, Variant: 10 * time.Millisecond}))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = pe.Execute(ctx, 1)
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("Execute took %v under a 10ms variant deadline", elapsed)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Execute = %v, want DeadlineExceeded", err)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("%d variants still running after Execute returned", n)
			}
		})
	}
}

// TestCallerCancelEndsEveryVariant: cancelling the caller's context
// mid-request ends every variant, the one on the caller's goroutine
// included, with or without a request deadline, and Execute returns
// only once every variant has.
func TestCallerCancelEndsEveryVariant(t *testing.T) {
	for _, request := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("request=%v", request), func(t *testing.T) {
			const n = 3
			var running atomic.Int32
			entered := make(chan struct{}, n)
			pe, err := NewParallelEvaluation(hangs(n, &running, entered), firstError(),
				WithDeadline(resilience.DeadlinePolicy{Request: request}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			results := make(chan error, 1)
			go func() {
				_, err := pe.Execute(ctx, 1)
				results <- err
			}()
			for i := 0; i < n; i++ {
				<-entered
			}
			cancel()
			select {
			case err := <-results:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Execute = %v, want Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelling the caller did not end the request")
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("%d variants still running after Execute returned", n)
			}
		})
	}
}

// TestPanicOnCallersGoroutineMatchesGuard: a variant panicking in the
// first slot, on the caller's goroutine, fails with the same error text
// as core.Guard gives, and the caller survives.
func TestPanicOnCallersGoroutineMatchesGuard(t *testing.T) {
	for name, v := range map[string]core.Variant[int, int]{
		"error value": panicVariant("p"),
		"string value": core.NewVariant("p", func(context.Context, int) (int, error) {
			panic("boom")
		}),
	} {
		t.Run(name, func(t *testing.T) {
			pe, err := NewParallelEvaluation([]core.Variant[int, int]{v, okVariant("a"), okVariant("b")}, firstError())
			if err != nil {
				t.Fatal(err)
			}
			_, got := pe.Execute(context.Background(), 7)
			_, want := core.Guard(v).Execute(context.Background(), 7)
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Fatalf("Execute = %v, core.Guard = %v", got, want)
			}
			if !errors.Is(got, core.ErrVariantPanicked) {
				t.Fatalf("Execute = %v, want ErrVariantPanicked", got)
			}
		})
	}
}
