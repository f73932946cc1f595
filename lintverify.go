package eatss

import (
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/verify"
)

// Diagnostics & certification: the static-analysis surface of the
// pipeline. Lint inspects kernels before they enter the pipeline;
// Certify/CertifyMapped re-decide the solver's and the compiler's
// results independently after the fact.

// Diag is one kernel-linter finding (stable Code, Severity, source
// position when the kernel was parsed from DSL text).
type Diag = lint.Diag

// Severity grades a linter finding.
type Severity = lint.Severity

// Linter severities.
const (
	SeverityInfo    = lint.Info
	SeverityWarning = lint.Warning
	SeverityError   = lint.Error
)

// Lint diagnoses a kernel under the given problem sizes (nil uses the
// kernel's defaults): undeclared or unused iterators and arrays,
// duplicate iterator names, provably out-of-bounds subscripts, empty
// loop domains, zero-coefficient subscript anomalies, column-major
// access patterns, and reductions writing a non-invariant location.
// Unlike Validate, it accepts malformed kernels and reports the
// malformations as Error-severity diagnostics.
func Lint(k *AffineKernel, params map[string]int64) []Diag { return lint.Lint(k, params) }

// LintGPU is Lint plus device-dependent feasibility diagnostics: an
// Error-severity "infeasible-region" finding when the static feasible
// tile region (internal/feas) is empty on g, or when every solver
// configuration (shared splits × warp fractions) is statically
// infeasible — i.e. SelectBest is guaranteed to fail. Empty regions
// are proved by prune certificates, not sampled.
func LintGPU(k *AffineKernel, params map[string]int64, g *GPU, prec Precision) []Diag {
	return lint.LintGPU(k, params, g, prec)
}

// LintHasErrors reports whether any diagnostic is Error-severity.
func LintHasErrors(diags []Diag) bool { return lint.HasErrors(diags) }

// RenderDiags joins diagnostics one per line for display.
func RenderDiags(diags []Diag) string { return lint.Render(diags) }

// ParseKernelNamed is ParseKernel with a source name (typically the
// file path), so parse errors and linter diagnostics render
// "file:line:col".
func ParseKernelNamed(src, name string) (*AffineKernel, error) {
	return parser.ParseNamed(src, name)
}

// Violation is a certification failure: the named check (SMT constraint
// label or certifier check) the result provably fails. Any Violation is
// a bug — either an infeasible result escaped the solver/mapper or the
// two independent derivations of the paper's bounds disagree.
type Violation = verify.Violation

// Certify independently certifies a tile selection for a kernel: the
// solver's witness is replayed constraint by constraint in arbitrary
// precision, and the warp-alignment, register and capacity bounds are
// re-derived from the GPU description without the solver. The tile
// upper bounds are re-derived under k.Params, so k must carry the
// problem sizes the selection was solved under: for a selection from a
// Program analyzed with params, pass prog.Kernel(), which has them
// merged in. nil means certified; otherwise the error unwraps to a
// *Violation. Certification is always this explicit call; no option
// of the pipeline runs it.
func Certify(k *AffineKernel, g *GPU, sel *Selection) error {
	return verify.CertifySelection(verify.SelectionFacts{
		Kernel:           k,
		Params:           k.Params,
		GPU:              g,
		Tiles:            sel.Tiles,
		Witness:          sel.Witness,
		SplitFactor:      sel.Opts.SplitFactor,
		WarpFraction:     sel.Opts.WarpFraction,
		Precision:        sel.Opts.Precision,
		ProblemSizeAware: sel.Opts.ProblemSizeAware,
	})
}

// CertifyMapped cross-checks a compiled kernel's launch geometry,
// shared-memory staging footprint and register budget against the GPU's
// execution-model limits. nil means certified; otherwise the error
// unwraps to a *Violation.
func CertifyMapped(mk *MappedKernel, g *GPU) error {
	return verify.CertifyKernel(mk, g)
}
