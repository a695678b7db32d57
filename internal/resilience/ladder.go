package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/softwarefaults/redundancy/internal/core"
)

// errLadderEmpty reports that no rung of the ladder could serve.
var errLadderEmpty = errors.New("resilience: no fallback rung served")

// Ladder is the degradation ladder of one executor: an ordered list of
// fallbacks consulted when the redundant executor itself fails. The
// rungs, in order:
//
//  1. the cached last-good value (enabled by CacheLastGood; executors
//     store every successful result via Store);
//  2. a degraded variant (set by DegradedVariant) — a cheaper, simpler
//     implementation that trades quality for availability;
//  3. nothing: the executor's failure is returned wrapped in
//     ErrDegraded so callers can tell "failed with fallbacks
//     exhausted" from a plain failure.
//
// Serving from the ladder emits a DegradedServe observation event (the
// pattern executors do this), so degraded operation is always visible.
// Ladder is safe for concurrent use.
type Ladder[I, O any] struct {
	mu       sync.RWMutex
	last     O
	haveLast bool
	cache    bool
	degraded core.Variant[I, O]

	cacheServes    atomic.Int64
	degradedServes atomic.Int64
}

// NewLadder returns an empty ladder; enable rungs with CacheLastGood
// and DegradedVariant.
func NewLadder[I, O any]() *Ladder[I, O] { return &Ladder[I, O]{} }

// CacheLastGood enables the last-good-value rung and returns the ladder
// for chaining.
func (l *Ladder[I, O]) CacheLastGood() *Ladder[I, O] {
	l.mu.Lock()
	l.cache = true
	l.mu.Unlock()
	return l
}

// DegradedVariant sets the degraded-variant rung and returns the ladder
// for chaining. The variant runs with panic containment.
func (l *Ladder[I, O]) DegradedVariant(v core.Variant[I, O]) *Ladder[I, O] {
	l.mu.Lock()
	l.degraded = v
	l.mu.Unlock()
	return l
}

// Store records a successful result as the last-good value. Executors
// call it on every accepted result; it is a no-op until CacheLastGood
// enables the rung.
func (l *Ladder[I, O]) Store(value O) {
	l.mu.Lock()
	if l.cache {
		l.last = value
		l.haveLast = true
	}
	l.mu.Unlock()
}

// LastGood returns the cached value and whether one is present.
func (l *Ladder[I, O]) LastGood() (O, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.last, l.haveLast
}

// Serve walks the rungs and returns the first value obtained, naming
// the rung that served ("cache" or "degraded-variant"). It returns an
// error when every rung is exhausted.
func (l *Ladder[I, O]) Serve(ctx context.Context, input I) (O, string, error) {
	l.mu.RLock()
	value, have, degraded := l.last, l.cache && l.haveLast, l.degraded
	l.mu.RUnlock()
	if have {
		l.cacheServes.Add(1)
		return value, "cache", nil
	}
	if degraded != nil {
		out, err := core.ExecuteGuarded(ctx, degraded, input)
		if err == nil {
			l.degradedServes.Add(1)
			return out, "degraded-variant", nil
		}
		var zero O
		return zero, "", err
	}
	var zero O
	return zero, "", errLadderEmpty
}

// CacheServes returns how many requests the last-good rung answered.
func (l *Ladder[I, O]) CacheServes() int64 { return l.cacheServes.Load() }

// DegradedServes returns how many requests the degraded-variant rung
// answered.
func (l *Ladder[I, O]) DegradedServes() int64 { return l.degradedServes.Load() }
