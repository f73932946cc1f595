// Package feas is the Sec. IV constraint system as data: the one
// model-side derivation of the paper's resource bounds, built once per
// (Program, GPU, Config) without the solver and consumed by every
// model-side user.
//
// Derive produces a Region: the warp-aligned tile domains of IV-B as
// per-dimension interval Bounds, plus labeled monotone Predicates for
// the register bound of IV-G/IV-I and the L1/shared/L2 capacity split
// of IV-H/IV-J, in emission order. Region.Lower declares exactly that
// system on an smt.Problem; the solver (internal/core) solves the
// lowered problem under its IV-K objective, and Explain evaluates the
// same predicates at the selected tiles. Every coefficient is positive and every tile is >= 1, so each
// left-hand side is monotone in every variable. That monotonicity is
// what makes two cheap judgements sound:
//
//   - Point check: a tile choice violating one predicate violates the
//     matching model constraint, so the configuration is point-wise
//     UNSAT under the formulation — pruning it cannot change which
//     feasible point a search would keep.
//   - Region check: if a predicate already fails on the domain box's
//     minimum corner (evaluated with smt.Interval arithmetic), every
//     point of the region fails it, so the whole (Program, GPU, Config)
//     region is empty and a solver call would return UNSAT.
//
// Every verdict is a machine-checkable PruneCert naming the violated
// constraint with its interval witness; verify.CertifyPrune replays
// certificates against its own independent math/big derivation, and
// Region.UnsatSMT re-decides them against the finite-domain solver. The
// sweep engine (SweepOptions.Prune), SelectBest's (split x
// warp-fraction) sibling loop, both autotuners and the eatssd service
// consume the analysis. The root package's TestSweepPruneParity and
// TestCatalogPruneCertificatesReplay gate its soundness catalog-wide.
package feas

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/smt"
)

// Config selects which of the Sec. IV constraint families the derived
// region enforces. It matches core.Options field for field where a
// family is option-dependent, so the Region of a solve's Options is
// exactly the formulation the solver decides.
type Config struct {
	// Precision scales the register bound (Sec. IV-I) and the capacity
	// pools (bytes / element size, Sec. IV-J).
	Precision affine.Precision
	// SplitFactor divides the L1+shared pool (Sec. IV-J); only read
	// when Capacity is set.
	SplitFactor float64
	// WarpFraction sets the warp-alignment step (Sec. IV-B). 0 disables
	// alignment (step 1) — unlike core.Options, which normalizes 0 to
	// full-warp alignment, because a sweep's points carry no alignment
	// obligation.
	WarpFraction float64
	// ProblemSizeAware tightens tile upper bounds to min(T_P_B, N).
	ProblemSizeAware bool
	// Capacity adds the L1/shared/L2 capacity predicates (IV-H/IV-J),
	// which depend on SplitFactor.
	Capacity bool
}

// SweepConfig is the option-free constraint family a tile-space sweep
// (or an explicit-tiles service request) can prune against: the
// register bound and the problem-size-aware tile domains — exactly the
// constraints every core.Options instantiation enforces. Warp
// alignment and the capacity split are choices of one solve's Options,
// so they stay out: a sweep prune must hold under every Options, and in
// particular must never reject a tile choice the solver itself could
// return.
func SweepConfig(prec affine.Precision) Config {
	return Config{Precision: prec, ProblemSizeAware: true}
}

// ModelConfig is the Config of one default core.Options instantiation
// (capacity split on): its region is that solve's formulation, so
// Region.Empty implies the solve returns UNSAT.
func ModelConfig(split, warpFrac float64, prec affine.Precision) Config {
	return Config{
		Precision:        prec,
		SplitFactor:      split,
		WarpFraction:     warpFrac,
		ProblemSizeAware: true,
		Capacity:         true,
	}
}

// Bound is one tile dimension's domain: multiples of Step inside
// [Iv.Lo, Iv.Hi] (Iv.Lo is Step, Iv.Hi the largest admissible multiple
// — exactly the smt.RangeVar domain Lower declares).
type Bound struct {
	Name string
	Iv   smt.Interval
	Step int64
}

// Term is Coeff x the product of the named tile variables — one
// monomial of a predicate's left-hand side.
type Term struct {
	Coeff int64
	Iters []string
}

// Predicate is one labeled monotone constraint: sum of Terms <= Cap.
// Labels use verify's vocabulary ("register", "shared-capacity",
// "l1-capacity", "l2-share"). Box is the predicate's left-hand side
// evaluated over the domain box in interval arithmetic; Box.Lo > Cap
// proves the whole region infeasible.
type Predicate struct {
	Label string
	Nest  string
	Terms []Term
	Cap   int64
	Box   smt.Interval
}

// PruneCert is a machine-checkable infeasibility verdict: which
// constraint is violated, by which point (or, for Region certificates,
// by the domain box's minimum corner — and therefore by every point),
// with the concrete arithmetic witness. verify.CertifyPrune replays it
// independently.
type PruneCert struct {
	Kernel string
	GPU    string
	// Constraint names the violated constraint ("tile-domain",
	// "tile-alignment", "parallelism", or a Predicate label).
	Constraint string
	// Nest is set for per-nest resource constraints; Loop for
	// per-dimension domain constraints.
	Nest string
	Loop string
	// Tiles is the judged point. For Region certificates it is the
	// domain box's minimum corner (empty for domain-empty regions).
	Tiles map[string]int64
	// LHS and Cap state the violated comparison LHS > Cap. For domain
	// certificates LHS is the tile value and Cap the domain bound.
	LHS int64
	Cap int64
	// Interval is the witness: the constraint's left-hand side over the
	// whole domain box for Region certificates, the degenerate
	// point-value interval otherwise.
	Interval smt.Interval
	// Region marks a whole-region (every point infeasible) certificate.
	Region bool
}

// String renders the certificate for error messages and 422 bodies.
func (c *PruneCert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", c.Constraint)
	if c.Region {
		b.WriteString(" (whole region)")
	}
	b.WriteString(": ")
	switch c.Constraint {
	case "tile-domain":
		fmt.Fprintf(&b, "T_%s = %d outside [1, %d]", c.Loop, c.LHS, c.Cap)
	case "tile-alignment":
		fmt.Fprintf(&b, "T_%s = %d is not a positive multiple of %d", c.Loop, c.LHS, c.Cap)
	case "parallelism":
		fmt.Fprintf(&b, "nest %q has no parallel loop", c.Nest)
	default:
		fmt.Fprintf(&b, "nest %q: %d exceeds the %s limit %d", c.Nest, c.LHS, c.Constraint, c.Cap)
	}
	if len(c.Tiles) > 0 {
		names := make([]string, 0, len(c.Tiles))
		for n := range c.Tiles {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString(" at")
		for _, n := range names {
			fmt.Fprintf(&b, " T_%s=%d", n, c.Tiles[n])
		}
	}
	return b.String()
}

// Region is the derived feasible-region over-approximation for one
// (Program, GPU, Config): every model-feasible tile choice satisfies
// all Bounds and all Predicates (the converse need not hold — the
// region is an over-approximation, so Check returning nil proves
// nothing). Immutable after Derive; safe for concurrent use.
type Region struct {
	Kernel string
	GPU    string
	Cfg    Config
	// Bounds holds one domain per loop name, sorted by name.
	Bounds []Bound
	// Preds holds the monotone resource predicates in model-emission
	// order.
	Preds []Predicate
	// Empty, when non-nil, certifies that the whole region is
	// infeasible: the domain is empty or a predicate fails on the
	// domain box's minimum corner.
	Empty *PruneCert
}

// satCeil is the saturation threshold for overflow-free monotone
// arithmetic: far above every device capacity, far below int64
// overflow territory for one more multiplication by a tile <= T_P_B.
const satCeil = math.MaxInt64 >> 16

// memoKey keys one memoized region on a Program: the whole GPU
// description (two presets may share a Name) and the Config.
type memoKey struct {
	gpu arch.GPU
	cfg Config
}

// Cached is Derive memoized on the analysis artifact, once per (GPU,
// Config): every solve, sweep worker and request sharing the Program
// shares the region. SelectBest's static sibling skip and the solve
// that follows it therefore derive each sibling's system once.
func Cached(prog *analysis.Program, g *arch.GPU, cfg Config) *Region {
	return prog.Memo(memoKey{*g, cfg}, func() any { return Derive(prog, g, cfg) }).(*Region)
}

func satMul(a, b int64) int64 {
	if a > 0 && b > 0 && a > satCeil/b {
		return satCeil
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > satCeil-b {
		return satCeil
	}
	return a + b
}

// Derive builds the region for (prog, g, cfg): the tile domains, their
// upper bounds intersected across nests sharing a loop name, and the
// per-nest resource predicates with their capacity arithmetic. An empty
// domain still gets every predicate, so the lowered system is the full
// formulation either way. It never calls the solver; cost is linear in
// the kernel's nests and arrays. Callers holding a shared Program
// should use Cached.
func Derive(prog *analysis.Program, g *arch.GPU, cfg Config) *Region {
	r := &Region{Kernel: prog.Kernel.Name, GPU: g.Name, Cfg: cfg}

	step := int64(1)
	if cfg.WarpFraction > 0 {
		step = int64(cfg.WarpFraction * float64(g.ThreadsPerWarp))
		if step < 1 {
			step = 1
		}
	}

	// IV-B: per-dimension domains, upper bounds intersected across
	// nests sharing a loop name.
	upper := make(map[string]int64)
	var names []string
	for _, na := range prog.Nests {
		for _, l := range na.Nest.Loops {
			hi := g.ThreadsPerBlock
			if cfg.ProblemSizeAware {
				if ext := na.Extents[l.Name]; ext < hi {
					hi = ext
				}
			}
			if prev, ok := upper[l.Name]; !ok || hi < prev {
				if !ok {
					names = append(names, l.Name)
				}
				upper[l.Name] = hi
			}
		}
	}
	sort.Strings(names)
	iv := make(map[string]smt.Interval, len(names))
	for _, name := range names {
		hi := (upper[name] / step) * step // largest multiple of step in the domain
		b := Bound{Name: name, Iv: smt.Interval{Lo: step, Hi: hi}, Step: step}
		r.Bounds = append(r.Bounds, b)
		iv[name] = b.Iv
		if b.Iv.Empty() && r.Empty == nil {
			r.Empty = &PruneCert{
				Kernel: r.Kernel, GPU: r.GPU, Constraint: "tile-domain", Loop: name,
				LHS: step, Cap: upper[name], Interval: b.Iv, Region: true,
			}
		}
	}

	// Per-nest resource predicates, in emission order.
	elemB := cfg.Precision.Bytes()
	for _, na := range prog.Nests {
		nest := na.Nest.Name
		if len(na.Parallel) == 0 {
			// No block to size: the solver refuses the formulation, so
			// the region is empty in the same sense.
			if r.Empty == nil {
				r.Empty = &PruneCert{
					Kernel: r.Kernel, GPU: r.GPU, Constraint: "parallelism",
					Nest: nest, Region: true,
				}
			}
			continue
		}
		// No B_size <= T_P_B (IV-A): the paper's own matmul answer (Tj=384) exceeds it.
		r.addPred(Predicate{
			Label: "register", Nest: nest,
			Terms: []Term{{Coeff: na.Reuse.DistinctLineRefs * cfg.Precision.Factor(), Iters: na.Parallel}},
			Cap:   g.RegsPerSM,
		}, iv)

		if !cfg.Capacity {
			continue
		}
		var l1Terms, shTerms []Term
		for _, av := range na.Arrays {
			if len(av.Iters) == 0 {
				continue // scalar: negligible volume
			}
			t := Term{Coeff: 1, Iters: av.Iters}
			if av.L1 || cfg.SplitFactor == 0 {
				l1Terms = append(l1Terms, t)
			} else {
				shTerms = append(shTerms, t)
			}
		}
		pool := g.L1SharedBytes / elemB
		shCap := int64(cfg.SplitFactor * float64(pool))
		l1Cap := pool - shCap
		if len(shTerms) > 0 {
			r.addPred(Predicate{Label: "shared-capacity", Nest: nest, Terms: shTerms, Cap: shCap}, iv)
		}
		if len(l1Terms) > 0 {
			if cfg.SplitFactor >= 1.0 {
				l2Cap := g.L2Bytes / g.SMCount / elemB
				r.addPred(Predicate{Label: "l2-share", Nest: nest, Terms: l1Terms, Cap: l2Cap}, iv)
			} else {
				r.addPred(Predicate{Label: "l1-capacity", Nest: nest, Terms: l1Terms, Cap: l1Cap}, iv)
			}
		}
	}
	return r
}

// addPred computes the predicate's interval box and appends it; a box
// minimum above the cap proves the whole region empty (monotone LHS:
// its minimum over the box is at the minimum corner).
func (r *Region) addPred(p Predicate, iv map[string]smt.Interval) {
	box := smt.Interval{}
	for _, t := range p.Terms {
		lo, hi := t.Coeff, t.Coeff
		for _, it := range t.Iters {
			v := iv[it]
			lo, hi = satMul(lo, v.Lo), satMul(hi, v.Hi)
		}
		box.Lo, box.Hi = satAdd(box.Lo, lo), satAdd(box.Hi, hi)
	}
	p.Box = box
	r.Preds = append(r.Preds, p)
	if box.Lo > p.Cap && r.Empty == nil {
		r.Empty = &PruneCert{
			Kernel: r.Kernel, GPU: r.GPU, Constraint: p.Label, Nest: p.Nest,
			Tiles: r.minCorner(), LHS: box.Lo, Cap: p.Cap, Interval: box, Region: true,
		}
	}
}

// minCorner returns the domain box's minimum corner (every tile at its
// domain minimum, i.e. the warp-alignment step).
func (r *Region) minCorner() map[string]int64 {
	min := make(map[string]int64, len(r.Bounds))
	for _, b := range r.Bounds {
		min[b.Name] = b.Iv.Lo
	}
	return min
}

// Eval computes the predicate's left-hand side at a point, saturating
// instead of overflowing (saturation only ever inflates the value, so
// LHS > Cap verdicts stay sound while caps are below satCeil). ok is
// false when the point does not bind every variable the predicate
// reads — an unbindable predicate never prunes.
func (p *Predicate) Eval(tiles map[string]int64) (int64, bool) {
	var lhs int64
	for _, t := range p.Terms {
		v := t.Coeff
		for _, it := range t.Iters {
			tv, ok := tiles[it]
			if !ok {
				return 0, false
			}
			v = satMul(v, tv)
		}
		lhs = satAdd(lhs, v)
	}
	return lhs, true
}

// Check judges one tile choice against the region. nil means the point
// is inside the over-approximation (it may still be infeasible — Check
// never proves feasibility); a non-nil PruneCert proves the point
// violates the named model constraint. Domain bounds are checked before
// resource predicates, so predicate arithmetic only ever sees positive
// in-domain values.
func (r *Region) Check(tiles map[string]int64) *PruneCert {
	if r.Empty != nil {
		return r.Empty
	}
	for _, b := range r.Bounds {
		t, ok := tiles[b.Name]
		if !ok {
			continue
		}
		if t < 1 || t > b.Iv.Hi {
			return &PruneCert{
				Kernel: r.Kernel, GPU: r.GPU, Constraint: "tile-domain", Loop: b.Name,
				Tiles: copyTiles(tiles), LHS: t, Cap: b.Iv.Hi,
				Interval: smt.Interval{Lo: t, Hi: t},
			}
		}
		if b.Step > 1 && t%b.Step != 0 {
			return &PruneCert{
				Kernel: r.Kernel, GPU: r.GPU, Constraint: "tile-alignment", Loop: b.Name,
				Tiles: copyTiles(tiles), LHS: t, Cap: b.Step,
				Interval: smt.Interval{Lo: t, Hi: t},
			}
		}
	}
	for i := range r.Preds {
		p := &r.Preds[i]
		lhs, ok := p.Eval(tiles)
		if !ok {
			continue
		}
		if lhs > p.Cap {
			return &PruneCert{
				Kernel: r.Kernel, GPU: r.GPU, Constraint: p.Label, Nest: p.Nest,
				Tiles: copyTiles(tiles), LHS: lhs, Cap: p.Cap,
				Interval: smt.Interval{Lo: lhs, Hi: lhs},
			}
		}
	}
	return nil
}

// Feasible reports that Check finds no violation (the point is inside
// the over-approximation).
func (r *Region) Feasible(tiles map[string]int64) bool { return r.Check(tiles) == nil }

// Lower declares the region on a fresh smt.Problem: one RangeVar
// "T_<loop>" per Bound, in Bounds order, then one labeled LE constraint
// per Predicate, in emission order. A Term lowers to Mul(vars...),
// followed by "* C(Coeff)" when Coeff != 1. It is the only place the
// Sec. IV system becomes solver constraints: the solver's formulation
// (internal/core) and UnsatSMT both start from it. vars maps each loop
// name to its tile variable.
func (r *Region) Lower() (*smt.Problem, map[string]smt.Var) {
	p := smt.NewProblem()
	vars := make(map[string]smt.Var, len(r.Bounds))
	for _, b := range r.Bounds {
		vars[b.Name] = p.RangeVar("T_"+b.Name, 1, b.Iv.Hi, b.Step)
	}
	for _, pr := range r.Preds {
		terms := make([]smt.Expr, len(pr.Terms))
		for i, t := range pr.Terms {
			factors := make([]smt.Expr, len(t.Iters))
			for j, it := range t.Iters {
				factors[j] = smt.V(vars[it])
			}
			terms[i] = smt.Mul(factors...)
			if t.Coeff != 1 {
				terms[i] = smt.Mul(terms[i], smt.C(t.Coeff))
			}
		}
		p.RequireLabeled(pr.Label, smt.Sum(terms...), smt.LE, smt.C(pr.Cap))
	}
	return p, vars
}

// UnsatSMT re-decides a pruned point against the finite-domain solver:
// it lowers the region, pins the tile variables to the point, and
// reports whether the solver finds it unsatisfiable. A sound prune must
// always return true; TestSweepPruneParity and FuzzPipeline gate on it.
// Tiles outside a variable's declared domain are unsatisfiable by
// construction (the EQ pin cannot hold), matching the solver's own
// semantics.
func (r *Region) UnsatSMT(tiles map[string]int64) bool {
	p, vars := r.Lower()
	for _, b := range r.Bounds {
		if t, ok := tiles[b.Name]; ok {
			p.RequireEQ(smt.V(vars[b.Name]), smt.C(t))
		}
	}
	_, sat := smt.NewSolver(p).Solve()
	return !sat
}

func copyTiles(tiles map[string]int64) map[string]int64 {
	cp := make(map[string]int64, len(tiles))
	for n, v := range tiles {
		cp[n] = v
	}
	return cp
}
