package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Telemetry: how many selections were certified, and how many failed.
// A nonzero failure count means the solver and the independent checker
// disagree about the formulation — always a bug, never noise.
var (
	mVerified       = obs.NewCounter("core.verified")
	mVerifyFailures = obs.NewCounter("core.verify_failures")
)

// verifyKey identifies one (kernel, gpu, options) solve for
// Verify=Sample's deterministic subsetting.
func verifyKey(kernel, gpu string, opts Options) string {
	return fmt.Sprintf("%s|%s|%.3f|%.3f|%s|%v",
		kernel, gpu, opts.SplitFactor, opts.WarpFraction, opts.Precision,
		opts.ProblemSizeAware)
}

// selectionFacts assembles the certifier's input from a finished
// selection: the solve's exact inputs plus the solver witness.
func selectionFacts(prog *analysis.Program, g *arch.GPU, sel *Selection) verify.SelectionFacts {
	return verify.SelectionFacts{
		Kernel:           prog.Kernel,
		Params:           prog.Params,
		GPU:              g,
		Tiles:            sel.Tiles,
		Witness:          sel.Witness,
		SplitFactor:      sel.Opts.SplitFactor,
		WarpFraction:     sel.Opts.WarpFraction,
		Precision:        sel.Opts.Precision,
		ProblemSizeAware: sel.Opts.ProblemSizeAware,
	}
}
