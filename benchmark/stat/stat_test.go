package stat

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

// TestTenBeyondRule pins the rule that decides whether a percentile may be
// stated: at least ten samples strictly beyond it.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly ten beyond
		{999, 0.99, false}, // ceil(989.01) = 990 → nine beyond
		{200, 0.95, true},  // exactly ten
		{199, 0.95, false}, // nine
		{20, 0.50, true},   // ten above the median
		{19, 0.50, false},  // nine
		{100000, 0.99, true},
		{0, 0.5, false},
	} {
		if got := Supports(c.n, c.p); got != c.want {
			t.Errorf("Supports(%d, %v) = %v (beyond %d), want %v", c.n, c.p, got, Beyond(c.n, c.p), c.want)
		}
	}
	// Beyond must agree with Percentile: count the samples above it.
	for _, n := range []int{1, 7, 199, 200, 1000, 1239} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		for _, p := range []float64{0.5, 0.95, 0.99} {
			cut, above := Percentile(v, p), 0
			for _, x := range v {
				if x > cut {
					above++
				}
			}
			if above != Beyond(n, p) {
				t.Errorf("n=%d p=%v: %d samples above the percentile, Beyond says %d", n, p, above, Beyond(n, p))
			}
		}
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(v, n=4), the
// function the acceptance procedure names.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.7, 9.0}, 2.7, 3.1, 9.0},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 3.5, 1.0, 7.25, 6.0, 4.0, 9.5}, 2.5, 4.0, 7.25},
	} {
		q1, q3 := Quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
		if m := Median(c.v); math.Abs(m-c.median) > 1e-12 {
			t.Errorf("Median(%v) = %v, want %v", c.v, m, c.median)
		}
	}
	if q1, q3 := Quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("one value: %v %v", q1, q3)
	}
}
