package rankcube_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"rankcube"
)

// scanAll drains an open scan of cube.
func scanAll(cube *rankcube.SignatureCube, cond rankcube.Cond, f rankcube.Func) ([]rankcube.Result, error) {
	sc, err := cube.OpenScan(bg, cond, f)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var out []rankcube.Result
	for {
		r, ok, err := sc.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, r)
	}
}

// TestConstrainedAndMalformedRequests puts two kinds of request to every
// entry point that takes them. A constrained function (the thesis' fc class)
// scores a tuple outside its band +Inf, so the tuple is no answer: each
// engine must return exactly what its sequential scan returns, TIDs and
// order, however many slots k leaves. A malformed request must fail with
// ErrInvalidArgument.
func TestConstrainedAndMalformedRequests(t *testing.T) {
	rel := rankcube.GenerateRelation(2000, 2, 2, 10, rankcube.Uniform, 5)
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	indices := []rankcube.Index{rankcube.BuildBTree(rel, 0), rankcube.BuildBTree(rel, 1)}
	eng := rankcube.NewSkylineEngine(sig)
	fc := rankcube.Constrained(rankcube.Sum(0, 1), 0, 0, 0.02)
	cond := rankcube.Cond{0: 3}
	const k = 50

	baseline := func(k int) []rankcube.Result {
		res, err := sig.BaselineQuery(bg, cond, fc, k)
		if err != nil || len(res) == 0 || len(res) >= k {
			t.Fatalf("fixture: baseline gave %d results (%v), want between 1 and %d", len(res), err, k-1)
		}
		return res
	}
	inBand, err := rankcube.TableScanQuery(bg, rel, nil, fc, k)
	if err != nil || len(inBand) == 0 || len(inBand) >= k {
		t.Fatalf("fixture: table scan gave %d results (%v), want between 1 and %d", len(inBand), err, k-1)
	}
	part := rankcube.JoinPart{Rel: rankcube.NewJoinRelation("A", rel, sig, joinKeys(rel.Len(), 50), 50), F: rankcube.Sum(0)}
	skyErr := func(dims []int, target []float64) func() ([]rankcube.Result, error) {
		return func() ([]rankcube.Result, error) {
			_, _, err := eng.Query(bg, cond, dims, target)
			return nil, err
		}
	}

	cases := []struct {
		name string
		run  func() ([]rankcube.Result, error)
		// want is the answer of a well-formed request; nil marks a
		// malformed one.
		want []rankcube.Result
	}{
		{"fc/signature query", func() ([]rankcube.Result, error) { return sig.Query(bg, cond, fc, k) }, baseline(k)},
		{"fc/signature scan", func() ([]rankcube.Result, error) { return scanAll(sig, cond, fc) }, baseline(rel.Len())},
		{"fc/grid query", func() ([]rankcube.Result, error) { return grid.Query(bg, cond, fc, k) }, baseline(k)},
		{"fc/merge", func() ([]rankcube.Result, error) {
			return rankcube.MergeQuery(bg, rel, indices, fc, k, rankcube.MergeOptions{})
		}, inBand},
		{"malformed/skyline without dims", skyErr(nil, nil), nil},
		{"malformed/skyline dim out of range", skyErr([]int{0, 2}, nil), nil},
		{"malformed/skyline target arity", skyErr([]int{0, 1}, []float64{0.5}), nil},
		{"malformed/drill-down without snapshot", func() ([]rankcube.Result, error) {
			_, _, err := eng.DrillDownQuery(bg, nil, rankcube.Cond{1: 2})
			return nil, err
		}, nil},
		{"malformed/roll-up without snapshot", func() ([]rankcube.Result, error) {
			_, _, err := eng.RollUpQuery(bg, nil, []int{0})
			return nil, err
		}, nil},
		{"malformed/merge without indices", func() ([]rankcube.Result, error) {
			return rankcube.MergeQuery(bg, rel, nil, fc, k, rankcube.MergeOptions{})
		}, nil},
		{"malformed/join of one part", func() ([]rankcube.Result, error) {
			_, err := rankcube.JoinQuery(bg, []rankcube.JoinPart{part}, k)
			return nil, err
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if c.want == nil {
				if !errors.Is(err, rankcube.ErrInvalidArgument) {
					t.Fatalf("err = %v, want ErrInvalidArgument", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if math.IsInf(r.Score, 1) {
					t.Fatalf("result %d of %d is out of the band: %v", i, len(got), r)
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("got %d results %v\nscan %d results %v", len(got), got, len(c.want), c.want)
			}
		})
	}
}

// TestOutOfDomainValuesSelectNothing puts selection values outside their
// dimension's [0, card) to the grid cube, whose cells are keyed mixed-radix
// (value 7 of a 5-value dimension would alias the next value of the
// dimension before it). Every engine must answer what the sequential scan
// answers, nothing, and the grid cube must read nothing to say so.
func TestOutOfDomainValuesSelectNothing(t *testing.T) {
	rel := rankcube.GenerateRelation(3000, 2, 2, 5, rankcube.Uniform, 9)
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	f := rankcube.Sum(0, 1)
	for _, cond := range []rankcube.Cond{{0: 0, 1: 7}, {0: 1, 1: -2}, {1: 5}, {0: -1}} {
		if want, err := grid.BaselineQuery(bg, cond, f, 10); err != nil || len(want) != 0 {
			t.Fatalf("scan %v: %v (%v), want nothing", cond, want, err)
		}
		var m rankcube.Metrics
		got, err := grid.Query(bg, cond, f, 10, rankcube.WithMetrics(&m))
		if err != nil || len(got) != 0 || m.TotalReads() != 0 {
			t.Fatalf("grid %v: %v (%v) in %d reads, want nothing in none", cond, got, err, m.TotalReads())
		}
		if got, err := sig.Query(bg, cond, f, 10); err != nil || len(got) != 0 {
			t.Fatalf("signature %v: %v (%v), want nothing", cond, got, err)
		}
	}
}

// TestConditionOutsideSchemaIsInvalid puts a condition on a selection
// dimension the schema does not have, and a ranking function over a rank
// dimension it does not have, to every top-k entry point that takes one, and
// joins whose shape is malformed whatever their condition and function: each
// fails with ErrInvalidArgument, and none degrades or panics.
func TestConditionOutsideSchemaIsInvalid(t *testing.T) {
	rel := rankcube.GenerateRelation(2000, 2, 2, 10, rankcube.Uniform, 5)
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	indices := []rankcube.Index{rankcube.BuildBTree(rel, 0), rankcube.BuildBTree(rel, 1)}
	keys := joinKeys(rel.Len(), 50)
	joinRel := rankcube.NewJoinRelation("A", rel, sig, keys, 50)
	type entry func(rankcube.Cond, rankcube.Func, *rankcube.Metrics) ([]rankcube.Result, error)
	join := func(other *rankcube.JoinRelation) entry {
		return func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			_, err := rankcube.JoinQuery(bg, []rankcube.JoinPart{
				{Rel: joinRel, Cond: c, F: rankcube.Sum(0)},
				{Rel: other, Cond: c, F: f},
			}, 10, rankcube.WithMetrics(m))
			return nil, err
		}
	}
	keyed := func(tid int, key int32) *rankcube.JoinRelation {
		bad := slices.Clone(keys)
		bad[tid] = key
		return rankcube.NewJoinRelation("K", rel, sig, bad, 50)
	}
	grownRel := rankcube.GenerateRelation(500, 2, 2, 10, rankcube.Uniform, 6)
	grownSig := rankcube.BuildSignatureCube(grownRel, rankcube.SigOptions{})
	grown := rankcube.NewJoinRelation("G", grownRel, grownSig, joinKeys(grownRel.Len(), 50), 50)
	// The tuple past the keys scores 0: a join pulls it first.
	if _, err := grownSig.InsertTuple(bg, []int32{1, 2}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	// withCond marks the entry points that take a condition, malformed the
	// requests that are malformed whatever their condition and function.
	entries := map[string]struct {
		withCond, malformed bool
		run                 entry
	}{
		"grid query": {true, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return grid.Query(bg, c, f, 10, rankcube.WithMetrics(m))
		}},
		"grid baseline": {true, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return grid.BaselineQuery(bg, c, f, 10, rankcube.WithMetrics(m))
		}},
		"signature query": {true, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return sig.Query(bg, c, f, 10, rankcube.WithMetrics(m))
		}},
		"signature baseline": {true, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return sig.BaselineQuery(bg, c, f, 10, rankcube.WithMetrics(m))
		}},
		"table scan": {true, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return rankcube.TableScanQuery(bg, rel, c, f, 10, rankcube.WithMetrics(m))
		}},
		"signature scan": {false, false, func(c rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			sc, err := sig.OpenScan(bg, c, f, rankcube.WithMetrics(m))
			if err == nil {
				sc.Close()
			}
			return nil, err
		}},
		"merge": {false, false, func(_ rankcube.Cond, f rankcube.Func, m *rankcube.Metrics) ([]rankcube.Result, error) {
			return rankcube.MergeQuery(bg, rel, indices, f, 10, rankcube.MergeOptions{}, rankcube.WithMetrics(m))
		}},
		"join part":                    {false, false, join(rankcube.NewJoinRelation("B", rel, sig, keys, 50))},
		"join with a key past keyCard": {false, true, join(keyed(7, 50))},
		"join with a negative key":     {false, true, join(keyed(1999, -3))},
		"join with a nil relation":     {false, true, join(nil)},
		"join without a table":         {false, true, join(rankcube.NewJoinRelation("T", nil, sig, keys, 50))},
		"join without a cube":          {false, true, join(rankcube.NewJoinRelation("C", rel, nil, keys, 50))},
		"join with a grown relation":   {false, true, join(grown)},
	}
	good := rankcube.Sum(0, 1)
	for name, e := range entries {
		malformed := func(what string, c rankcube.Cond, f rankcube.Func) {
			t.Helper()
			var m rankcube.Metrics
			if _, err := e.run(c, f, &m); !errors.Is(err, rankcube.ErrInvalidArgument) || m.Downgrades != 0 {
				t.Errorf("%s %s: err = %v after %d downgrades, want ErrInvalidArgument and none", name, what, err, m.Downgrades)
			}
		}
		if e.malformed {
			malformed("request", rankcube.Cond{0: 1}, good)
		}
		if e.withCond {
			for _, cond := range []rankcube.Cond{{5: 1}, {-1: 0}, {0: 1, 2: 0}} {
				malformed(fmt.Sprint(cond), cond, good)
			}
		}
		for _, f := range []rankcube.Func{
			rankcube.Sum(0, 7),
			rankcube.Sum(2),
			rankcube.Linear([]int{-1, 0}, []float64{1, 1}),
			rankcube.SqDist([]int{0, 5}, []float64{0.5, 0.5}),
			rankcube.Constrained(rankcube.Sum(0, 1), 3, 0, 1),
			rankcube.General(rankcube.Sub(rankcube.Var(0), nil)),
			nil,
		} {
			malformed(fmt.Sprint(f), rankcube.Cond{0: 1}, f)
		}
	}
}

// TestGridCubeOverEmptyRelation builds a grid cube over a relation without
// rows: it answers nothing, and after an insert the inserted tuple, as the
// table scan does.
func TestGridCubeOverEmptyRelation(t *testing.T) {
	rel, err := rankcube.NewRelation([]string{"a", "b"}, []int{3, 4}, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	f := rankcube.Sum(0, 1)
	for _, cond := range []rankcube.Cond{nil, {0: 2}, {0: 2, 1: 1}} {
		if got, err := grid.Query(bg, cond, f, 5); err != nil || len(got) != 0 {
			t.Fatalf("empty cube %v: %v (%v), want nothing", cond, got, err)
		}
	}
	if _, err := grid.InsertTuple(bg, []int32{2, 1}, []float64{0.7, 3}); err != nil {
		t.Fatal(err)
	}
	for _, cond := range []rankcube.Cond{nil, {0: 2}, {0: 2, 1: 1}, {1: 0}} {
		got, err := grid.Query(bg, cond, f, 5)
		want, scanErr := rankcube.TableScanQuery(bg, rel, cond, f, 5)
		if err != nil || scanErr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after an insert %v: %v (%v), scan %v (%v)", cond, got, err, want, scanErr)
		}
	}
}
