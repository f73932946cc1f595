// Package symbolic is the closed-form evaluation backend: it derives,
// once per analysis.Program × (GPU, options), a piecewise closed-form
// plan giving traffic/occupancy/time/energy as functions of the
// tile-size vector, then evaluates tile points by plain arithmetic —
// no per-point mapping, no maps, no sorting of references.
//
// The plan is exact, not approximate: it feeds precomputed span
// structures into the very same pure model functions the per-point
// simulator uses (codegen.ComputeGeometry, gpusim.OccupancyOf,
// gpusim.TrafficModel, gpusim.NestModel, gpusim.Finalize), and replays
// the tile-dependent mapping decisions (tile clamping, PPCG's deep-nest
// inner-loop quirk, thread coarsening, shared-staging demotion, the
// register estimate) with the same arithmetic. Within its supported
// domain a plan therefore reproduces gpusim.Simulate point for point —
// the parity is pinned by root-level tests over the full gemm paper
// space and the whole kernel catalog, and by the pipeline fuzz oracle.
//
// What cannot be established exactly is "residual": a Derive that fails
// (no parallel loop, an iterator that is not a nest loop) and any
// configuration outside the supported domain (time-tiling, register
// micro-tiles, verification) fall back to gpusim point evaluation in
// the caller (the root package's evaluator seam), which counts and
// reports the fallback rate.
package symbolic

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/affine"
	"repro/internal/obs"
)

// Telemetry: plan derivations and closed-form point evaluations.
var (
	mPlans          = obs.NewCounter("symbolic.plans")
	mDeriveFailures = obs.NewCounter("symbolic.derive_failures")
	mPoints         = obs.NewCounter("symbolic.points")
)

// Evaluator selects the evaluation backend for sweep points, autotune
// probes, SelectBest candidates, and eatssd simulate requests.
type Evaluator int

const (
	// EvalSimulate compiles and simulates every tile point — the
	// original per-point path. The zero value, so existing callers and
	// serialized configs keep their behaviour.
	EvalSimulate Evaluator = iota
	// EvalSymbolic evaluates through the closed-form plan, falling back
	// to simulation only for residual points (counted and reported).
	EvalSymbolic
)

// String returns the parseable name: simulate or symbolic.
func (e Evaluator) String() string {
	switch e {
	case EvalSimulate:
		return "simulate"
	case EvalSymbolic:
		return "symbolic"
	}
	return fmt.Sprintf("evaluator(%d)", int(e))
}

// ParseEvaluator parses an evaluator name as accepted on CLI flags and
// in eatssd requests. The empty string means EvalSimulate (the default
// backend), so absent fields keep their pre-seam behaviour. "auto" asks
// for the fastest exact backend, which is the closed-form plan with
// simulator fallback: it parses as EvalSymbolic.
func ParseEvaluator(s string) (Evaluator, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "simulate":
		return EvalSimulate, nil
	case "symbolic", "auto":
		return EvalSymbolic, nil
	}
	return EvalSimulate, fmt.Errorf("symbolic: unknown evaluator %q (want simulate, symbolic or auto)", s)
}

// ErrResidual marks a tile point where the plan cannot establish the
// exact closed form; callers fall back to gpusim point evaluation and
// report the point as residual. Today's derivation is total over its
// supported domain — a successfully derived plan evaluates every point
// exactly — so the sentinel is returned only by future partial
// derivations; the fallback seam and its accounting are in place
// regardless.
var ErrResidual = errors.New("symbolic: residual point (no closed form)")

// Config is the options subset a plan is specialized for. It mirrors
// codegen.Options: anything beyond it (time-tile fusion, register
// micro-tiles, verification) is outside the supported domain and must
// be routed to the simulator by the caller.
type Config struct {
	UseShared   bool
	SharedQuota int64
	Precision   affine.Precision
}

func (c Config) String() string {
	return fmt.Sprintf("shared=%t|quota=%d|prec=%s", c.UseShared, c.SharedQuota, c.Precision)
}
