package recovery

import (
	"context"
	"errors"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
)

func TestBlockForwardsObserver(t *testing.T) {
	c := obs.NewCollector()
	state := ledger{}
	primary := core.NewVariant("primary", func(_ context.Context, _ int) (int, error) {
		state.Entries = append(state.Entries, -1)
		return 0, errors.New("primary bug")
	})
	alternate := core.NewVariant("alternate", func(_ context.Context, x int) (int, error) {
		return x, nil
	})
	acceptAll := func(int, int) error { return nil }
	b, err := NewBlock("blk", &state, acceptAll,
		[]core.Variant[int, int]{primary, alternate},
		WithObserver[ledger, int, int](c))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Execute(context.Background(), 7); err != nil || got != 7 {
		t.Fatalf("= (%d, %v)", got, err)
	}

	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Executor != "sequential-alternatives" {
		t.Fatalf("snapshot = %+v", snap)
	}
	s := snap[0]
	// One request, masked by the alternate after a rollback and a retry.
	if s.Requests != 1 || s.FailuresMasked != 1 || s.FailuresDetected != 1 {
		t.Errorf("request stats = %+v", s)
	}
	if s.Rollbacks != 1 || s.Retries != 1 {
		t.Errorf("recovery stats = %+v", s)
	}
	if len(s.Variants) != 2 {
		t.Errorf("variant stats = %+v", s.Variants)
	}
}

func TestBlockCombinesObservers(t *testing.T) {
	first, second := obs.NewCollector(), obs.NewCollector()
	state := 0
	v := core.NewVariant("v", func(_ context.Context, x int) (int, error) { return x, nil })
	b, err := NewBlock("blk", &state,
		func(int, int) error { return nil },
		[]core.Variant[int, int]{v},
		WithObserver[int, int, int](first),
		WithObserver[int, int, int](second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*obs.Collector{first, second} {
		if s := c.Executor("sequential-alternatives"); s.Requests != 1 || s.Executions() != 1 {
			t.Errorf("collector = %+v", s)
		}
	}
}
