package rankcube_test

import (
	"context"
	"fmt"
	"time"

	"rankcube"
)

// ExampleWithTrace traces one signature-cube query. Every span the boundary
// and the engine open is timed by the trace's Clock, here pinned to one
// instant, so the tree shows each phase's block reads per structure and a
// zero duration.
func ExampleWithTrace() {
	rel := rankcube.GenerateRelation(3000, 3, 3, 5, rankcube.Uniform, 1)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})

	tr := rankcube.NewTrace()
	tr.Clock = func() time.Time { return time.Unix(0, 0) }
	if _, err := cube.Query(context.Background(), rankcube.Cond{0: 1, 1: 2}, rankcube.Sum(0, 1), 5, rankcube.WithTrace(tr)); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(tr.Render())
	// Output:
	// sig.topk                           0s
	// ├─ tester                          0s
	// └─ search                          0s reads=6[rtree=4 signature=2] heap=39
}
