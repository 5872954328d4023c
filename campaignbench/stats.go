package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs; NaN
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailMin is how many samples must lie beyond a reported tail percentile,
// and tailFloor the lowest percentile (as a fraction) reported as a tail.
const (
	tailMin   = 10
	tailFloor = 0.9
)

// Tail is a sample's tail latency: the highest percentile that still has
// at least tailMin samples beyond it, together with the counts that make
// it meaningful. Below 100 samples that percentile lies under p90, down to
// the median at 20 samples and the minimum at 11, so the tail is the p90
// instead: Beyond is then below tailMin and Exact is false, and a reader
// sees the percentile rests on fewer samples than the rule asks for. The
// rank grows by at most one sample per added sample, so a workload whose
// sample count wanders between runs does not jump between unrelated
// order statistics.
type Tail struct {
	Value      float64
	Percentile float64 // nearest-rank percentile of Value, in percent
	Samples    int
	Beyond     int // samples strictly after Value in sorted order
	Exact      bool
}

// tailOf applies the rule: in ascending order the value at rank
// n-tailMin (1-based) has exactly tailMin samples after it, and it is the
// nearest-rank percentile 100·(n-tailMin)/n; the rank is raised to that
// of the nearest-rank p90, ceil(0.9·n), when that is higher.
func tailOf(xs []float64) Tail {
	n := len(xs)
	if n == 0 {
		return Tail{Value: math.NaN()}
	}
	s := sorted(xs)
	rank := max(n-tailMin, int(math.Ceil(tailFloor*float64(n))))
	return Tail{
		Value:      s[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		Samples:    n,
		Beyond:     n - rank,
		Exact:      n-rank >= tailMin,
	}
}

func (t Tail) String() string {
	if !t.Exact {
		return fmt.Sprintf("p%.1f of %d samples, %d beyond (too few samples for %d beyond at or above p%g)",
			t.Percentile, t.Samples, t.Beyond, tailMin, 100*tailFloor)
	}
	return fmt.Sprintf("p%.1f of %d samples, %d beyond", t.Percentile, t.Samples, t.Beyond)
}

// Ratio is an exact share that keeps its base: Num of Den.
type Ratio struct {
	Num, Den int64
}

// Value is Num/Den, NaN for an empty base so a missing base can never
// read as a zero share.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return math.NaN()
	}
	return float64(r.Num) / float64(r.Den)
}

func (r Ratio) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// residual is what remains of total after the measured parts. It is
// returned as computed: a negative residual means the parts were
// measured under different conditions than the total and is reported, not
// clamped to zero.
func residual(total float64, parts ...float64) float64 {
	return total - sum(parts)
}
