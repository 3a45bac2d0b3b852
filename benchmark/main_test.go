package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"rankcube/benchmark/workload"
)

// TestEndToEndPassAtSmallScale runs the whole end-to-end pass — set-up,
// warm-up, window, verification — on every workload at 1/100 scale with a
// window that closes as soon as the op prefix is through, and checks the
// result against BENCHMARK.json: every end-to-end metric present, with its
// unit, and never zero; nothing failed; and the count metrics identical when
// the pass is repeated.
func TestEndToEndPassAtSmallScale(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is outside this directory and absent here:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workload.All) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workload.All))
	}
	for i, spec := range workload.All {
		if doc.Workloads[i].Name != spec.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, doc.Workloads[i].Name, spec.Name)
		}
		first, err := endToEnd(context.Background(), spec, 1, 0, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		second, err := endToEnd(context.Background(), spec, 1, 0, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", spec.Name, first.Correct, first.Failed, first.Attempted)
		}
		if len(first.Metrics) != len(doc.EndToEnd) {
			names := make([]string, 0, len(first.Metrics))
			for n := range first.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d: %v", spec.Name, len(first.Metrics), len(doc.EndToEnd), names)
		}
		for _, want := range doc.EndToEnd {
			got, ok := first.Metrics[want.Name]
			if !ok || got.Unit != want.Unit || !(got.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", spec.Name, want.Name, got, ok, want.Unit)
			}
		}
		for _, exact := range []string{"reads_per_query", "io_saving_x", "space_amp"} {
			if first.Metrics[exact].Value != second.Metrics[exact].Value {
				t.Errorf("%s: %s is %v, then %v: a count metric must repeat exactly",
					spec.Name, exact, first.Metrics[exact].Value, second.Metrics[exact].Value)
			}
		}
	}
}

func TestPickSampleIsStableAndReadsOnly(t *testing.T) {
	spec, err := workload.ByName("sig-churn")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pickSample(d.Ops, 20, 4), pickSample(d.Ops, 20, 4)
	if workload.HashOps(a) != workload.HashOps(b) || len(a) != 20 {
		t.Error("the verification sample must be a fixed function of the seed")
	}
	if workload.HashOps(a) == workload.HashOps(pickSample(d.Ops, 20, 5)) {
		t.Error("another seed must pick another sample")
	}
	for i := range a {
		if !a[i].IsRead() {
			t.Errorf("sample holds a write: %+v", a[i])
		}
	}
}
