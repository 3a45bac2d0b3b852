package workload

import (
	"context"
	"reflect"
	"testing"

	"rankcube"
)

// testScale runs every workload at 1/100 of its size: seconds for all four.
const testScale = 0.01

func TestSameSeedSameOps(t *testing.T) {
	for _, spec := range All {
		a, err := spec.Generate(7, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.Generate(7, testScale)
		c, _ := spec.Generate(8, testScale)
		if HashOps(a.Ops) != HashOps(b.Ops) {
			t.Errorf("%s: the same seed gave two op lists", spec.Name)
		}
		if HashOps(a.Ops) == HashOps(c.Ops) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", spec.Name)
		}
		if a.Rel.Len() != b.Rel.Len() || a.Rel.Rank(3, 0) != b.Rel.Rank(3, 0) || a.Rel.Rank(3, 0) == c.Rel.Rank(3, 0) {
			t.Errorf("%s: relations do not follow the seed", spec.Name)
		}
	}
}

// run executes the whole scaled op list once and returns what it counted.
func run(t *testing.T, spec Spec, seed int64) (*Recorder, Instance, *Data) {
	t.Helper()
	d, err := spec.Generate(seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	inst := spec.Build(d)
	r := NewRecorder(len(d.Ops), len(d.Ops))
	r.Keep = true
	for i := range d.Ops {
		inst.Exec(context.Background(), &d.Ops[i], r)
	}
	return r, inst, d
}

// TestCountsRepeat is the determinism the count metrics rest on: two runs of
// one seed answer every request identically and charge identical reads, and
// end with the same footprint.
func TestCountsRepeat(t *testing.T) {
	for _, spec := range All {
		a, ia, da := run(t, spec, 3)
		b, ib, _ := run(t, spec, 3)
		if a.Failed != 0 {
			t.Errorf("%s: %d requests failed", spec.Name, a.Failed)
		}
		if a.Ops != len(da.Ops) || len(a.QueryNS)+len(a.WriteNS) != len(da.Ops) {
			t.Errorf("%s: %d ops recorded, %d read and %d write latencies, for %d ops",
				spec.Name, a.Ops, len(a.QueryNS), len(a.WriteNS), len(da.Ops))
		}
		if a.Reads == 0 || a.Reads != b.Reads || !reflect.DeepEqual(a.Kept, b.Kept) {
			t.Errorf("%s: runs of one seed differ: reads %d vs %d", spec.Name, a.Reads, b.Reads)
		}
		if ia.MaterializedBytes() != ib.MaterializedBytes() || ia.BaseBytes() != ib.BaseBytes() || ia.BaseBytes() == 0 {
			t.Errorf("%s: footprints differ: %d/%d vs %d/%d", spec.Name,
				ia.MaterializedBytes(), ia.BaseBytes(), ib.MaterializedBytes(), ib.BaseBytes())
		}
	}
}

// TestVerifyAgreesWithOracle runs the oracle check the benchmark runs after
// its window — for sig-churn on the state the writes left behind.
func TestVerifyAgreesWithOracle(t *testing.T) {
	for _, spec := range All {
		_, inst, d := run(t, spec, 5)
		checked := 0
		for i := range d.Ops {
			if !d.Ops[i].IsRead() {
				continue
			}
			c := inst.Verify(context.Background(), &d.Ops[i])
			if c.Bad != 0 || c.Answers == 0 {
				t.Fatalf("%s op %d: %d of %d answers disagree with the oracle", spec.Name, i, c.Bad, c.Answers)
			}
			if c.OracleReads == 0 {
				t.Fatalf("%s op %d: oracle charged no read", spec.Name, i)
			}
			if checked++; checked == 25 {
				break
			}
		}
		if err := inst.NoOp(context.Background()); err != nil {
			t.Errorf("%s: no-op request: %v", spec.Name, err)
		}
	}
}

func TestSameTopK(t *testing.T) {
	r := func(tid int, score float64) rankcube.Result {
		return rankcube.Result{TID: rankcube.TID(tid), Score: score}
	}
	want := []rankcube.Result{r(1, 0.1), r(2, 0.2), r(3, 0.2), r(4, 0.3)}
	for _, c := range []struct {
		name string
		got  []rankcube.Result
		same bool
	}{
		{"identical", []rankcube.Result{r(1, 0.1), r(2, 0.2), r(3, 0.2), r(4, 0.3)}, true},
		{"tied pair swapped", []rankcube.Result{r(1, 0.1), r(3, 0.2), r(2, 0.2), r(4, 0.3)}, true},
		{"distinct score, wrong tuple", []rankcube.Result{r(9, 0.1), r(2, 0.2), r(3, 0.2), r(4, 0.3)}, false},
		{"wrong score", []rankcube.Result{r(1, 0.1), r(2, 0.2), r(3, 0.2), r(4, 0.31)}, false},
		{"short", []rankcube.Result{r(1, 0.1)}, false},
	} {
		if SameTopK(c.got, want) != c.same {
			t.Errorf("%s: SameTopK = %v", c.name, !c.same)
		}
	}
}

func TestOraclesOnHandMadeData(t *testing.T) {
	rel, err := rankcube.NewRelation([]string{"a"}, []int{2}, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	// Predicate a=0 keeps tuples 0..3; of those 0 and 1 are incomparable,
	// 2 is dominated by 0, 3 by 1. Tuple 4 would dominate all but a=1.
	for _, row := range []struct {
		a    int32
		x, y float64
	}{{0, 0.1, 0.9}, {0, 0.8, 0.2}, {0, 0.2, 0.95}, {0, 0.9, 0.3}, {1, 0.0, 0.0}} {
		rel.Append([]int32{row.a}, []float64{row.x, row.y})
	}
	got := skylineOracle(rel, rankcube.Cond{0: 0}, []int{0, 1})
	if !reflect.DeepEqual(got, []rankcube.TID{0, 1}) {
		t.Errorf("skyline oracle = %v, want [0 1]", got)
	}
	if !sameSkyline([]rankcube.SkylineResult{{TID: 1}, {TID: 0}}, got) || sameSkyline([]rankcube.SkylineResult{{TID: 0}, {TID: 2}}, got) {
		t.Error("sameSkyline must compare id sets, in any order")
	}

	// Join the relation with itself on keys {7,7,8,8,7}: with no predicate
	// on either side the best pair is (4,4) at score 0, then the pairs of
	// key 7 in score order.
	s := &Session{JoinCond: [2]rankcube.Cond{{}, {}}}
	s.join[0], s.join[1] = rankcube.Sum(0, 1), rankcube.Sum(0, 1)
	side := JoinSide{Rel: rel, Keys: []int32{7, 7, 8, 8, 7}}
	top := joinOracle([2]JoinSide{side, side}, s, 3)
	if len(top) != 3 || top[0].tids != [2]rankcube.TID{4, 4} || top[0].score != 0 {
		t.Fatalf("join oracle = %+v", top)
	}
	for _, j := range top {
		if side.Keys[j.tids[0]] != side.Keys[j.tids[1]] {
			t.Errorf("joined tuples %v have different keys", j.tids)
		}
	}
	if !sameJoin([]rankcube.JoinResult{
		{TIDs: []rankcube.TID{top[0].tids[0], top[0].tids[1]}, Score: top[0].score},
		{TIDs: []rankcube.TID{top[1].tids[0], top[1].tids[1]}, Score: top[1].score},
		{TIDs: []rankcube.TID{top[2].tids[0], top[2].tids[1]}, Score: top[2].score},
	}, top) {
		t.Error("sameJoin rejects the oracle's own answer")
	}
}

// TestQueryMixIsEven checks what the quasi-random generator is for: any
// stretch of a query list carries the workload's mix.
func TestQueryMixIsEven(t *testing.T) {
	d, err := sigTopK.Generate(11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start+150 <= len(d.Ops); start += 150 {
		var kinds [3]int
		big := 0
		for _, op := range d.Ops[start : start+150] {
			kinds[op.F.Kind]++
			if op.K == 100 {
				big++
			}
		}
		for k, n := range kinds {
			if n < 45 || n > 55 {
				t.Errorf("ops %d..: family %d appears %d times in 150, want about 50", start, k, n)
			}
		}
		if big < 25 || big > 35 {
			t.Errorf("ops %d..: k=100 appears %d times in 150, want about 30", start, big)
		}
	}
	hot := 0
	for _, op := range d.Ops {
		for _, v := range op.Cond {
			if v == 0 {
				hot++
				break
			}
		}
	}
	if share := float64(hot) / float64(len(d.Ops)); share < 0.3 || share > 0.5 {
		t.Errorf("%.2f of predicates name the hottest value; zipf(1.2) over 100 values with 1–2 terms gives about 0.4", share)
	}
}
