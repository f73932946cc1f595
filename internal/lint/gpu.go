package lint

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/feas"
)

// GPU-aware diagnostics: feasibility of the tile space on a concrete
// device. These live behind a separate entry point because they need an
// arch.GPU and a reuse analysis, which plain Lint deliberately does not.

// CodeInfeasibleRegion flags a kernel whose static feasible tile region
// (internal/feas) is empty on the target GPU.
const CodeInfeasibleRegion = "infeasible-region"

// LintGPU runs Lint and appends device-dependent feasibility
// diagnostics: an Error when the option-free sweep region (tile domains
// + register bound, any precision-prec model Options) is statically
// empty on g — no tile assignment can satisfy the Sec. IV model — and
// an Error when every solver configuration (shared splits × warp
// fractions) has an empty region, meaning SelectBest is guaranteed to
// find nothing. Both verdicts are sound: an empty region is a
// machine-checkable certificate (feas.PruneCert) that the constraint
// system is UNSAT, not a heuristic.
func LintGPU(k *affine.Kernel, params map[string]int64, g *arch.GPU, prec affine.Precision) []Diag {
	diags := Lint(k, params)
	if k == nil || g == nil {
		return diags
	}
	prog := analysis.Analyze(k, params)

	if cert := feas.Derive(prog, g, feas.SweepConfig(prec)).Empty; cert != nil {
		diags = append(diags, Diag{
			Code:     CodeInfeasibleRegion,
			Severity: Error,
			Msg: fmt.Sprintf("kernel %q has an empty feasible tile region on %s: %s",
				k.Name, g.Name, cert),
			Note: "no tile assignment satisfies the tile-domain and register constraints; no model configuration can be selected",
		})
		return diags
	}

	// The (split x warp-fraction) grid SelectBest explores.
	empty := 0
	var first *feas.PruneCert
	for _, split := range core.SharedSplits {
		for _, wf := range core.WarpFractions {
			if cert := feas.Derive(prog, g, feas.ModelConfig(split, wf, prec)).Empty; cert != nil {
				empty++
				if first == nil {
					first = cert
				}
			}
		}
	}
	if empty == len(core.SharedSplits)*len(core.WarpFractions) {
		diags = append(diags, Diag{
			Code:     CodeInfeasibleRegion,
			Severity: Error,
			Msg: fmt.Sprintf("kernel %q is statically infeasible on %s under every solver configuration (%d shared splits × %d warp fractions): %s",
				k.Name, g.Name, len(core.SharedSplits), len(core.WarpFractions), first),
			Note: "SelectBest would fail on every sibling; relax the problem sizes or the precision",
		})
	} else if empty > 0 {
		diags = append(diags, Diag{
			Code:     CodeInfeasibleRegion,
			Severity: Warning,
			Msg: fmt.Sprintf("kernel %q is statically infeasible on %s under %d of %d solver configurations (first: %s)",
				k.Name, g.Name, empty, len(core.SharedSplits)*len(core.WarpFractions), first),
			Note: "SelectBest skips these siblings without invoking the solver",
		})
	}
	return diags
}
