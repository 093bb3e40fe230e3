package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: a p99 from fewer than 1000 samples rests on
// fewer than ten observations and is refused.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of sorted samples. It
// refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g: %d samples leave %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// tailQuantiles are tried highest first for a distribution's tail.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// dist is a sorted sample set with its percentiles.
type dist struct {
	xs []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

func durDist(ds []time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return newDist(xs)
}

func (d dist) n() int { return len(d.xs) }

// p returns the q-quantile, refusing under-sampled tails.
func (d dist) p(q float64) (float64, error) { return percentile(d.xs, q) }

// tail returns the highest of tailQuantiles that has minBeyond samples
// beyond it, and that quantile.
func (d dist) tail() (float64, float64, error) {
	for _, q := range tailQuantiles {
		if v, err := d.p(q); err == nil {
			return v, q, nil
		}
	}
	_, err := d.p(tailQuantiles[len(tailQuantiles)-1])
	return 0, 0, err
}

// median returns the middle value (mean of the two middle values for an
// even count); unlike a tail it needs no samples beyond it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
