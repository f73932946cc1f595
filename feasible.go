package eatss

import (
	"repro/internal/feas"
	"repro/internal/verify"
)

// FeasibleRegion is the static tile-space feasibility analysis of
// internal/feas: per-dimension interval bounds plus labeled monotone
// capacity predicates, derived once per (Program, GPU, Config) without
// the solver. Check judges a point, and Empty certifies a whole region
// infeasible.
type FeasibleRegion = feas.Region

// PruneCert is a machine-checkable infeasibility verdict naming the
// violated constraint and its interval witness (see CertifyPrune).
type PruneCert = feas.PruneCert

// FeasibleRegion derives (and memoizes on the Program through
// feas.Cached, like the symbolic plans) the sweep-prunable feasibility
// region for g under cfg: the option-free constraint family — the
// problem-size-aware tile domains and the register bound — that must
// hold for a point to be feasible under any model Options. Only cfg.Precision participates;
// a service caching Programs per fingerprint therefore caches regions
// per fingerprint too.
func (p *Program) FeasibleRegion(g *GPU, cfg RunConfig) *FeasibleRegion {
	return feas.Cached(p.prog, g, feas.SweepConfig(cfg.Precision))
}

// CertifyPrune independently replays a prune certificate: the claimed
// constraint is re-derived from the kernel, the GPU description and a
// fresh reuse analysis — none of the interval machinery that produced
// the certificate — and re-evaluated in arbitrary precision
// (internal/verify, math/big). nil means the pruned point (or region)
// is genuinely infeasible and the certificate's LHS and Cap are the
// re-derived values; an error labeled "false-prune" means the static
// analysis pruned a feasible point, and one labeled "prune-claim" that
// the certificate misstates the violated comparison. cfg must be the
// Config the certificate's region was derived under.
func CertifyPrune(k *AffineKernel, params map[string]int64, g *GPU, cfg feas.Config, cert *PruneCert) error {
	return verify.CertifyPrune(verify.PruneFacts{
		SelectionFacts: verify.SelectionFacts{
			Kernel:           k,
			Params:           params,
			GPU:              g,
			Tiles:            cert.Tiles,
			SplitFactor:      cfg.SplitFactor,
			WarpFraction:     cfg.WarpFraction,
			Precision:        cfg.Precision,
			ProblemSizeAware: cfg.ProblemSizeAware,
		},
		Constraint: cert.Constraint,
		Nest:       cert.Nest,
		Loop:       cert.Loop,
		Region:     cert.Region,
		LHS:        cert.LHS,
		Cap:        cert.Cap,
	})
}

// SweepPruneConfig returns the Config FeasibleRegion (and the sweep
// engine's SweepOptions.Prune pre-filter) derives regions under, so
// callers can hand CertifyPrune the matching options.
func SweepPruneConfig(prec Precision) feas.Config { return feas.SweepConfig(prec) }
