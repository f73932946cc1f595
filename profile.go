package eatss

import (
	"repro/internal/core"
	"repro/internal/profile"
)

// Re-exported attribution types (see internal/profile).
type (
	// Profile is the per-nest × per-array × per-memory-level energy and
	// traffic attribution of one simulated run; its components sum to
	// the run's EnergyJ (Profile.Check enforces the conservation).
	Profile = profile.Profile
	// ProfileComponents is one energy value per attribution level
	// (DRAM / L2 / L1 / shared / compute / static).
	ProfileComponents = profile.Components
	// ProfileDiffReport explains why one tile configuration beats
	// another, component by component.
	ProfileDiffReport = profile.DiffReport
	// SweepSurface is the exportable energy/time surface of a sweep:
	// raw points plus 2-D heatmap slices (JSON/CSV).
	SweepSurface = profile.Surface
	// SweepSurfacePoint is one evaluated configuration of a surface.
	SweepSurfacePoint = profile.SurfacePoint
)

// ProfileOf decomposes a simulated Result into its attribution profile.
// tiles (optional, may be nil) labels the profile for diffs. The
// returned profile satisfies Check(1e-9) for every catalog kernel on
// every built-in architecture — conservation is pinned by tests.
func ProfileOf(res *Result, tiles map[string]int64) (*Profile, error) {
	p, err := profile.FromResult(res)
	if err != nil {
		return nil, err
	}
	if tiles != nil {
		p.Tiles = copyTiles(tiles)
	}
	return p, nil
}

// ProfileDiff compares two profiles of the same kernel/arch and
// attributes the energy gap to the levels that moved ("why A beats B").
func ProfileDiff(a, b *Profile) *ProfileDiffReport { return profile.Diff(a, b) }

// NewSweepSurface assembles the exportable energy/time surface from
// ExploreSpaceOpt results: every evaluated point plus min-energy heatmap
// slices for each pair of tile dimensions.
func NewSweepSurface(kernel, gpu string, pts []SpacePoint) *SweepSurface {
	spts := make([]profile.SurfacePoint, len(pts))
	for i, p := range pts {
		spts[i] = profile.SurfacePoint{
			Tiles:   copyTiles(p.Tiles),
			TimeSec: p.Result.TimeSec,
			EnergyJ: p.Result.EnergyJ,
			GFLOPS:  p.Result.GFLOPS,
			PPW:     p.Result.PPW,
		}
	}
	return profile.NewSurface(kernel, gpu, spts)
}

// PublishProfile exposes p on the introspection server's /profile
// endpoint (see internal/obs/serve).
func PublishProfile(p *Profile) { profile.Publish(p) }

// PublishSweepSurface exposes s on /profile?view=surface.
func PublishSweepSurface(s *SweepSurface) { profile.PublishSurface(s) }

// ExplainEnergy fuses a selection's constraint-slack view with a run's
// energy attribution: it names the dominant energy component and
// whether the formulation constraint governing it is binding. slacks is
// the first return of Explain.
func ExplainEnergy(sel *Selection, slacks []ConstraintSlack, p *Profile) string {
	return core.ExplainEnergy(sel, slacks, p)
}
