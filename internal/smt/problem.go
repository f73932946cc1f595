package smt

import (
	"fmt"
	"sort"
	"strings"
)

// Problem is a conjunction of constraints over finite-domain integer
// variables.
type Problem struct {
	names   []string
	domains [][]int64 // sorted ascending, deduplicated
	cons    []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// IntVar declares a variable with an explicit candidate domain. The domain
// is copied, sorted and deduplicated. Declaring an empty domain yields a
// trivially unsatisfiable problem.
func (p *Problem) IntVar(name string, domain []int64) Var {
	d := append([]int64(nil), domain...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	out := d[:0]
	for i, v := range d {
		if i == 0 || v != d[i-1] {
			out = append(out, v)
		}
	}
	p.names = append(p.names, name)
	p.domains = append(p.domains, out)
	return Var(len(p.names) - 1)
}

// RangeVar declares a variable ranging over the multiples of step within
// [lo, hi] (Sec. IV-B's warp-aligned tile domains). step must be >= 1.
func (p *Problem) RangeVar(name string, lo, hi, step int64) Var {
	if step < 1 {
		step = 1
	}
	start := ((lo + step - 1) / step) * step
	if start < step {
		start = step
	}
	var d []int64
	if start <= hi {
		d = make([]int64, 0, (hi-start)/step+1)
	}
	for v := start; v <= hi; v += step {
		d = append(d, v)
	}
	// Ascending and distinct by construction: no IntVar normalisation.
	p.names = append(p.names, name)
	p.domains = append(p.domains, d)
	return Var(len(p.names) - 1)
}

// NumVars returns the number of declared variables.
func (p *Problem) NumVars() int { return len(p.names) }

// Name returns the declared name of v.
func (p *Problem) Name(v Var) string { return p.names[v] }

// Domain returns (a copy of) the current candidate domain of v.
func (p *Problem) Domain(v Var) []int64 {
	return append([]int64(nil), p.domains[v]...)
}

// Require adds the constraint l op r.
func (p *Problem) Require(l Expr, op Op, r Expr) {
	p.cons = append(p.cons, Constraint{L: l, Op: op, R: r})
}

// RequireLabeled adds the constraint l op r under a label naming the
// model constraint kind, for the solver's prune attribution.
func (p *Problem) RequireLabeled(label string, l Expr, op Op, r Expr) {
	p.cons = append(p.cons, Constraint{L: l, Op: op, R: r, Label: label})
}

// RequireEQ adds l == r.
func (p *Problem) RequireEQ(l, r Expr) { p.Require(l, EQ, r) }

// Constraints returns the number of constraints added so far.
func (p *Problem) Constraints() int { return len(p.cons) }

// String renders the problem in an SMT-LIB-flavored form for debugging and
// for the CLI's -dump-model mode.
func (p *Problem) String() string {
	var b strings.Builder
	for i, name := range p.names {
		d := p.domains[i]
		if len(d) == 0 {
			fmt.Fprintf(&b, "(declare %s in {})\n", name)
			continue
		}
		fmt.Fprintf(&b, "(declare %s in [%d..%d] /%d values)\n", name, d[0], d[len(d)-1], len(d))
	}
	for _, c := range p.cons {
		fmt.Fprintf(&b, "(assert (%s %s %s))\n", c.Op, c.L.render(p.names), c.R.render(p.names))
	}
	return b.String()
}

// Clone returns a copy of p that later Require calls extend without
// changing p.
func (p *Problem) Clone() *Problem {
	return &Problem{
		names:   p.names[:len(p.names):len(p.names)],
		domains: p.domains[:len(p.domains):len(p.domains)],
		cons:    append([]Constraint(nil), p.cons...),
	}
}
