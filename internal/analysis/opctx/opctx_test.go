package opctx_test

import (
	"path/filepath"
	"testing"

	"nephele/internal/analysis/analysistest"
	"nephele/internal/analysis/opctx"
)

func TestOpCtx(t *testing.T) {
	oldObs, oldMeter := opctx.ObsPkgs, opctx.MeterPkgs
	opctx.ObsPkgs = []string{"nephele/internal/analysis/opctx/testdata/src/obs"}
	opctx.MeterPkgs = []string{"nephele/internal/analysis/opctx/testdata/src/vclock"}
	t.Cleanup(func() { opctx.ObsPkgs, opctx.MeterPkgs = oldObs, oldMeter })

	analysistest.Run(t, filepath.Join("testdata", "src", "a"), opctx.Analyzer)
}

// TestOpCtxCoreSignatures exercises the meter-first-signature rule
// over the core and hv fixtures: exported meter-taking entry points fire
// unless waived, in every surface package.
func TestOpCtxCoreSignatures(t *testing.T) {
	oldObs, oldMeter, oldSurface := opctx.ObsPkgs, opctx.MeterPkgs, opctx.SurfacePkgs
	opctx.ObsPkgs = []string{"nephele/internal/analysis/opctx/testdata/src/obs"}
	opctx.MeterPkgs = []string{"nephele/internal/analysis/opctx/testdata/src/vclock"}
	opctx.SurfacePkgs = []string{
		"nephele/internal/analysis/opctx/testdata/src/core",
		"nephele/internal/analysis/opctx/testdata/src/hv",
	}
	t.Cleanup(func() { opctx.ObsPkgs, opctx.MeterPkgs, opctx.SurfacePkgs = oldObs, oldMeter, oldSurface })

	for _, pkg := range []string{"core", "hv"} {
		analysistest.Run(t, filepath.Join("testdata", "src", pkg), opctx.Analyzer)
	}
}
