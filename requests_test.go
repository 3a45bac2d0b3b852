package rankcube_test

import (
	"errors"
	"math"
	"reflect"
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
