package rankcube

import (
	"context"
	"errors"
	"testing"
)

// TestMaintenancePanicReleasesExclusiveLock injects an engine panic into the
// path every grid write takes (maintain → runQuery under the exclusive lock)
// and checks that it surfaces as ErrInternal with the lock released: a query
// that follows is admitted and answered.
func TestMaintenancePanicReleasesExclusiveLock(t *testing.T) {
	ctx := context.Background()
	rel := GenerateRelation(1000, 2, 2, 4, Uniform, 3)
	cube := BuildGridCube(rel, GridOptions{BlockSize: 100})
	m := NewMetrics()
	_, err := maintain(ctx, "grid.insert", cube.ctl, []Option{WithMetrics(m)}, func(*Metrics) TID {
		panic("injected engine fault")
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if m.Downgrades != 0 {
		t.Fatal("maintenance must never degrade")
	}
	res, err := cube.Query(ctx, Cond{0: 1}, Sum(0, 1), 3)
	if err != nil || len(res) != 3 {
		t.Fatalf("query after the contained panic: %v %v", res, err)
	}
	if _, err := cube.InsertTuple(ctx, []int32{1, 1}, []float64{0.5, 0.5}); err != nil {
		t.Fatalf("insert after the contained panic: %v", err)
	}
}
