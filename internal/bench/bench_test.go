package bench

import (
	"context"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes the whole inventory at minimal scale and
// validates report structure: every series has points at every sweep
// position and non-negative values, and every query-time point is the whole
// triple — block reads charged, modelled time their sum with the CPU time at
// the one constant.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	cfg := Config{Scale: 0.002, Queries: 2, Seed: 1}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			cfg := cfg
			if id == "fig3.9" {
				// Its 4-condition queries spread the rows over 20⁴ cells:
				// below 60k rows both draw an empty one, which the cube and
				// the rank mapping answer without a read.
				cfg.Scale = 0.02
			}
			rep, err := Run(context.Background(), id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Series) == 0 {
				t.Fatal("no series")
			}
			n := len(rep.Series[0].Points)
			if n == 0 {
				t.Fatal("no points")
			}
			for _, s := range rep.Series {
				if len(s.Points) != n {
					t.Fatalf("series %s has %d points, first series %d", s.Name, len(s.Points), n)
				}
				for _, p := range s.Points {
					if p.Value < 0 {
						t.Fatalf("series %s point %s negative: %v", s.Name, p.X, p.Value)
					}
					if p.X == "" {
						t.Fatalf("series %s has unlabeled point", s.Name)
					}
					if p.Queries == 0 {
						continue // a build-time or size point: the one value
					}
					if p.Reads <= 0 {
						t.Fatalf("series %s point %s: a measured workload charged no block read", s.Name, p.X)
					}
					if p.ModelledMS != p.CPUms+0.1*p.Reads {
						t.Fatalf("series %s point %s: modelled %v != cpu %v + 0.1 × reads %v", s.Name, p.X, p.ModelledMS, p.CPUms, p.Reads)
					}
				}
			}
			out := rep.String()
			if !strings.Contains(out, rep.Title) {
				t.Fatal("String() missing title")
			}
			// The table the thesis plots comes first, in the metric the
			// report names; the triple follows for every measured point.
			if rep.Series[0].Points[n-1].Queries > 0 && !(strings.Index(out, "metric: "+rep.Metric) < strings.Index(out, "cpu ms")) {
				t.Fatalf("String() does not print the plotted table before the triple:\n%s", out)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "fig99.9", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Scale != 0.1 || c.Queries != 10 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if (Config{}).T(3_000_000) < 1000 {
		t.Fatal("scaled T below floor")
	}
	if (Config{Scale: 0.1}).T(3_000_000) != 300_000 {
		t.Fatalf("T scaling wrong: %d", (Config{Scale: 0.1}).T(3_000_000))
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		1234:   "1234",
		150.25: "150.2",
		0.1234: "0.123",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
