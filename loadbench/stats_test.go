package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{100, 0.9, 90},
		{99, 0.9, 0},
		{21, 0.5, 11},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{0, 0.5, 0},
	} {
		v, err := percentile(seq(c.n), c.q)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("n=%d p%g: got %v, want refusal", c.n, c.q*100, v)
		case c.want != 0 && (err != nil || v != c.want):
			t.Errorf("n=%d p%g: got %v, %v; want %v", c.n, c.q*100, v, err, c.want)
		}
	}
}

func TestTailPicksHighestSampledPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{10000, 0.999}, {1000, 0.99}, {999, 0.9}, {100, 0.9}} {
		d := newDist(seq(c.n))
		if d.n() != c.n {
			t.Fatalf("dist of %d samples reports n=%d", c.n, d.n())
		}
		_, q, err := d.tail()
		if err != nil || q != c.wantQ {
			t.Errorf("n=%d: tail p%g, %v; want p%g", c.n, q*100, err, c.wantQ*100)
		}
	}
	if _, _, err := newDist(seq(99)).tail(); err == nil {
		t.Error("99 samples: want the tail refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values: %v", m)
	}
}
