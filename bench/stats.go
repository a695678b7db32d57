package main

import (
	"math"
	"slices"
)

// rng is a splitmix64 stream. Each client owns one, seeded seed^client,
// so a client's inputs depend on nothing but the seed and its index.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// mix64 is the splitmix64 finalizer, used both as the stream's output
// function and as the stateless hash behind every fault decision.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// faultResidue maps (seed, input) to a residue in [0, 1000). A workload
// gives each replica its own disjoint residue classes, so a fault
// decision is a pure function of the seed and the input — never of how
// many requests a client has sent — and at most one replica is faulty
// on any input.
func faultResidue(seed, input uint64) int {
	return int(mix64(seed^mix64(input)) % 1000)
}

// percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule; sorted must be ascending and non-empty.
func percentile(sorted []uint32, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank])
}

// median returns the median of xs (mean of the middle pair for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// best returns the most favourable of xs: the maximum when higher is
// better, the minimum otherwise.
func best(xs []float64, higher bool) float64 {
	if higher {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// pooled divides a summed numerator by a summed denominator, the way
// per-request counts are combined across repeats (a mean of ratios
// would weight a slow repeat as much as a fast one).
func pooled(num, den []float64) float64 {
	var n, d float64
	for i := range num {
		n += num[i]
		d += den[i]
	}
	if d == 0 {
		return 0
	}
	return n / d
}

// spread is max÷min of xs, the harness-health figure printed beside
// per-slice and per-repeat throughput; 0 when it is undefined.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo := slices.Min(xs)
	if lo <= 0 {
		return 0
	}
	return slices.Max(xs) / lo
}
