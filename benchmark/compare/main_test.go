package main

import (
	"reflect"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := bound{Name: "latency", Better: "lower", Bound: 0.10}
	higher := bound{Name: "throughput", Better: "higher", Bound: 0.10}
	exact := bound{Name: "reads", Better: "lower", Bound: 0}
	for _, c := range []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"steady and equal", []float64{100, 101, 99}, []float64{100, 102, 100}, lower, ok},
		{"worse within the bound", []float64{100, 101, 99}, []float64{108, 107, 109}, lower, ok},
		{"worse beyond the bound", []float64{100, 101, 99}, []float64{120, 121, 119}, lower, regressed},
		{"better", []float64{100, 101, 99}, []float64{50, 51, 49}, lower, ok},
		{"throughput dropped", []float64{1000, 1010, 990}, []float64{800, 810, 790}, higher, regressed},
		{"throughput rose", []float64{1000, 1010, 990}, []float64{1300, 1310, 1290}, higher, ok},
		{"noisy and interleaved", []float64{100, 140, 80, 120}, []float64{130, 90, 150, 110}, lower, unresolved},
		{"noisy but every run of B above every run of A", []float64{100, 140, 80, 120}, []float64{200, 260, 180, 240}, lower, regressed},
		{"noisy but every run of B below every run of A", []float64{100, 140, 80, 120}, []float64{50, 70, 40, 60}, lower, ok},
		{"exact count unchanged", []float64{134.5, 134.5}, []float64{134.5, 134.5}, exact, ok},
		{"exact count grew", []float64{134.5, 134.5}, []float64{134.6, 134.6}, exact, regressed},
		{"exact count fell", []float64{134.5, 134.5}, []float64{120, 120}, exact, ok},
	} {
		if got := judge(c.a, c.b, c.bd); got.verdict != c.want {
			t.Errorf("%s: %s (worse %+.3f, spread %.3f), want %s", c.name, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	a, b, err := split([]string{"a.json", "b.json"})
	if err != nil || !reflect.DeepEqual(a, []string{"a.json"}) || !reflect.DeepEqual(b, []string{"b.json"}) {
		t.Errorf("two files: %v %v %v", a, b, err)
	}
	a, b, err = split([]string{"a1", "a2", "a3", "--", "b1", "b2"})
	if err != nil || len(a) != 3 || len(b) != 2 || b[0] != "b1" {
		t.Errorf("separator: %v %v %v", a, b, err)
	}
	for _, bad := range [][]string{nil, {"a"}, {"a", "b", "c"}, {"--", "b"}, {"a", "--"}} {
		if _, _, err := split(bad); err == nil {
			t.Errorf("split(%v) accepted", bad)
		}
	}
}
