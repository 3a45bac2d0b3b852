package sigcube_test

import (
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// The wrappers embed a function as a timing wrapper does, and count the calls
// the search makes to the methods they override.
type (
	wrappedLinear struct {
		*ranking.LinearFunc
		calls *int
	}
	wrappedDist struct {
		*ranking.DistFunc
		calls *int
	}
	wrappedExpr struct {
		*ranking.ExprFunc
		calls *int
	}
)

func (w wrappedLinear) Eval(x []float64) float64 { *w.calls++; return w.LinearFunc.Eval(x) }
func (w wrappedLinear) LowerBound(b ranking.Box) float64 {
	*w.calls++
	return w.LinearFunc.LowerBound(b)
}
func (w wrappedDist) Eval(x []float64) float64 { *w.calls++; return w.DistFunc.Eval(x) }
func (w wrappedDist) LowerBound(b ranking.Box) float64 {
	*w.calls++
	return w.DistFunc.LowerBound(b)
}
func (w wrappedExpr) Eval(x []float64) float64 { *w.calls++; return w.ExprFunc.Eval(x) }
func (w wrappedExpr) LowerBound(b ranking.Box) float64 {
	*w.calls++
	return w.ExprFunc.LowerBound(b)
}

// TestWrappedFuncSearchesLikeBare: a function wrapped by embedding, which the
// search scores through the accessor's full-width boxes and points and the
// wrapper's own methods, gives through Search what the bare function, scored
// where the index stores its entries, gives — answers to the bit, reads per
// structure, states generated and examined, pruned slots and peak heap — on
// the top-k requests of TestSearchStatesArePinned, with an L1 distance added.
// That is the path the benchmark's traced twin takes.
func TestWrappedFuncSearchesLikeBare(t *testing.T) {
	funcs := []ranking.Func{
		ranking.Linear([]int{0, 1, 2}, []float64{1, 2.5, 0.5}),
		ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.7, 0.5}),
		ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(2, ranking.Var(0)), ranking.Add(ranking.Var(1), ranking.Var(2))))),
		ranking.Linear([]int{0}, []float64{0}),
		ranking.L1Dist([]int{1, 2}, []float64{0.4, 0.1}),
	}
	wrap := func(f ranking.Func, calls *int) ranking.Func {
		switch f := f.(type) {
		case *ranking.LinearFunc:
			return wrappedLinear{f, calls}
		case *ranking.DistFunc:
			return wrappedDist{f, calls}
		case *ranking.ExprFunc:
			return wrappedExpr{f, calls}
		}
		t.Fatalf("no wrapper for %T", f)
		return nil
	}
	spec := table.GenSpec{T: 4000, S: 3, R: 3, Card: 4}
	for ci, lossy := range []bool{false, true} {
		spec.Seed = int64(431 + ci)
		cube := sigcube.Build(table.Generate(spec), sigcube.Config{RTree: rtree.Config{Fanout: 9}, LossySignatures: lossy})
		rng := rand.New(rand.NewSource(int64(471 + ci)))
		for c := 0; c < 9; c++ {
			cond := core.Cond{}
			for _, d := range rng.Perm(3)[:c%3] {
				cond[d] = int32(rng.Intn(4))
			}
			search := func(f ranking.Func, k int) ([]core.Result, *stats.Counters) {
				ctr := stats.New()
				tester, any, err := cube.TesterFor(cond, ctr)
				if err != nil {
					t.Fatal(err)
				}
				if !any {
					signature.Release(tester)
					return nil, ctr
				}
				return sigcube.Search(cube.Tree(), tester, cube.Verifier(cond, ctr), f, k, ctr), ctr
			}
			for _, f := range funcs {
				calls := 0
				wrapped := wrap(f, &calls)
				for _, k := range []int{1, 10, 100} {
					want, wctr := search(f, k)
					got, gctr := search(wrapped, k)
					if len(got) != len(want) {
						t.Fatalf("lossy %v, %v, %v, k %d: %d results wrapped, %d bare", lossy, cond, f, k, len(got), len(want))
					}
					for i := range got {
						if got[i].TID != want[i].TID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("lossy %v, %v, %v, k %d: result %d is %v wrapped, %v bare", lossy, cond, f, k, i, got[i], want[i])
						}
					}
					for s := stats.Structure(0); s <= stats.StructTable; s++ {
						if gctr.Reads(s) != wctr.Reads(s) {
							t.Fatalf("lossy %v, %v, %v, k %d: %d reads of structure %d wrapped, %d bare", lossy, cond, f, k, gctr.Reads(s), s, wctr.Reads(s))
						}
					}
					if g, w := [4]int64{gctr.StatesGenerated, gctr.StatesExamined, gctr.Pruned, int64(gctr.PeakHeap)}, [4]int64{wctr.StatesGenerated, wctr.StatesExamined, wctr.Pruned, int64(wctr.PeakHeap)}; g != w {
						t.Fatalf("lossy %v, %v, %v, k %d: generated, examined, pruned, peak %v wrapped, %v bare", lossy, cond, f, k, g, w)
					}
				}
				if calls == 0 {
					t.Fatalf("lossy %v, %v, %v: the search never called the wrapper", lossy, cond, f)
				}
			}
		}
	}
}
