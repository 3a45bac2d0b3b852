package ctxflow_test

import (
	"testing"

	"rankcube/internal/analysis/analysistest"
	"rankcube/internal/analysis/ctxflow"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ctxflow.Analyzer,
		"rankcube/internal/ctxa",
		"rankcube",
		"ctxpub",
	)
}
