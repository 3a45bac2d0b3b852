package analysis

import (
	"sort"
	"time"

	"rankcube/internal/analysis/atomicmix"
	"rankcube/internal/analysis/ctxflow"
	"rankcube/internal/analysis/errwrap"
	"rankcube/internal/analysis/framework"
	"rankcube/internal/analysis/governedio"
	"rankcube/internal/analysis/lockorder"
	"rankcube/internal/analysis/rawpanic"
)

// Suite returns the rankvet analyzers in reporting order.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		rawpanic.Analyzer,
		ctxflow.Analyzer,
		governedio.Analyzer,
		errwrap.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
	}
}

// Timing is one analyzer's share of a Run, for the driver's -stats output.
type Timing struct {
	Analyzer string
	Duration time.Duration
	Findings int
}

// Run applies every analyzer in the suite to each package and returns the
// aggregated diagnostics sorted by source position, plus per-analyzer
// timings. Every analyzer looks at one package at a time.
func Run(pkgs []*framework.Package, analyzers []*framework.Analyzer) ([]framework.Diagnostic, []Timing, error) {
	var diags []framework.Diagnostic
	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i].Analyzer = a.Name
		start := time.Now()
		for _, pkg := range pkgs {
			n := len(diags)
			pass := framework.NewPass(a, pkg, func(d framework.Diagnostic) { diags = append(diags, d) })
			if err := a.Run(pass); err != nil {
				return nil, nil, err
			}
			timings[i].Findings += len(diags) - n
		}
		timings[i].Duration = time.Since(start)
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		})
	}
	return diags, timings, nil
}
