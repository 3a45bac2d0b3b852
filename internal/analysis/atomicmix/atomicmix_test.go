package atomicmix_test

import (
	"testing"

	"rankcube/internal/analysis/analysistest"
	"rankcube/internal/analysis/atomicmix"
)

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), atomicmix.Analyzer, "atoms")
}
