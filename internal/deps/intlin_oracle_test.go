package deps

// This file decides feasibility of systems of integer linear
// constraints by Fourier–Motzkin elimination with a GCD pre-test — the
// classic exact dependence-testing machinery (Banerjee/Omega-style) that
// polyhedral frameworks build on. The exact dependence oracle
// (exact_oracle_test.go) uses it to verify the fast distance-vector
// analysis: the approximate analysis must never report "no dependence"
// for a pair this solver proves dependent.
//
// The decision procedure is exact for rational feasibility and
// conservative for integer feasibility (equalities are GCD-screened;
// a rationally-feasible system is reported feasible). Conservative in
// this direction is safe for dependence analysis: it can only add
// dependences, never lose one.

import "fmt"

// Row is one linear constraint over the system's variables:
//
//	sum_i Coef[i]*x_i + Const  (>= 0 | == 0)
type Row struct {
	Coef  []int64
	Const int64
}

// System is a conjunction of constraints over named integer variables.
type System struct {
	names []string
	eqs   []Row
	geqs  []Row
}

// NewSystem declares a system over the given variables.
func NewSystem(vars ...string) *System {
	return &System{names: append([]string(nil), vars...)}
}

// NumVars returns the variable count.
func (s *System) NumVars() int { return len(s.names) }

// VarIndex returns the index of a declared variable.
func (s *System) VarIndex(name string) (int, error) {
	for i, n := range s.names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("intlin: unknown variable %q", name)
}

func (s *System) row(coefs map[string]int64, c int64) (Row, error) {
	r := Row{Coef: make([]int64, len(s.names)), Const: c}
	for name, v := range coefs {
		i, err := s.VarIndex(name)
		if err != nil {
			return r, err
		}
		r.Coef[i] = v
	}
	return r, nil
}

// AddEq adds sum coefs + c == 0.
func (s *System) AddEq(coefs map[string]int64, c int64) error {
	r, err := s.row(coefs, c)
	if err != nil {
		return err
	}
	s.eqs = append(s.eqs, r)
	return nil
}

// AddGeq adds sum coefs + c >= 0.
func (s *System) AddGeq(coefs map[string]int64, c int64) error {
	r, err := s.row(coefs, c)
	if err != nil {
		return err
	}
	s.geqs = append(s.geqs, r)
	return nil
}

// AddBounds adds lo <= x <= hi.
func (s *System) AddBounds(name string, lo, hi int64) error {
	if err := s.AddGeq(map[string]int64{name: 1}, -lo); err != nil {
		return err
	}
	return s.AddGeq(map[string]int64{name: -1}, hi)
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize divides a row by the GCD of its coefficients. For inequalities
// the constant is floored (tightening is valid over integers); for
// equalities a non-divisible constant proves infeasibility.
func normalize(r Row, isEq bool) (Row, bool) {
	g := int64(0)
	for _, c := range r.Coef {
		g = gcd(g, c)
	}
	if g == 0 {
		// Constant row.
		if isEq {
			return r, r.Const == 0
		}
		return r, r.Const >= 0
	}
	if isEq {
		if r.Const%g != 0 {
			return r, false // GCD test: no integer solution
		}
		out := Row{Coef: make([]int64, len(r.Coef)), Const: r.Const / g}
		for i, c := range r.Coef {
			out.Coef[i] = c / g
		}
		return out, true
	}
	out := Row{Coef: make([]int64, len(r.Coef))}
	for i, c := range r.Coef {
		out.Coef[i] = c / g
	}
	out.Const = floorDiv(r.Const, g)
	return out, true
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Feasible reports whether the system has a rational solution that passes
// the integer GCD screens. A false result proves integer infeasibility;
// a true result may (rarely) be a rational-only solution — conservative
// for dependence testing.
func (s *System) Feasible() bool {
	// Substitute equalities away first (Gaussian-style), then run
	// Fourier–Motzkin on the inequalities.
	eqs := append([]Row(nil), s.eqs...)
	geqs := append([]Row(nil), s.geqs...)
	n := len(s.names)
	eliminated := make([]bool, n)

	for _, raw := range eqs {
		eq, ok := normalize(raw, true)
		if !ok {
			return false
		}
		// Find a variable with coefficient +-1 for exact substitution;
		// otherwise scale the target rows (still exact over rationals,
		// with the GCD screen already applied).
		pivot := -1
		for i, c := range eq.Coef {
			if eliminated[i] {
				continue
			}
			if c == 1 || c == -1 {
				pivot = i
				break
			}
		}
		if pivot == -1 {
			for i, c := range eq.Coef {
				if !eliminated[i] && c != 0 {
					pivot = i
					break
				}
			}
		}
		if pivot == -1 {
			if eq.Const != 0 {
				return false
			}
			continue
		}
		p := eq.Coef[pivot]
		eliminated[pivot] = true
		// Substitute into remaining equalities and inequalities:
		// row' = p*row - row.Coef[pivot]*eq  (sign-adjusted so the
		// inequality direction is preserved when p < 0).
		subst := func(r Row) Row {
			c := r.Coef[pivot]
			if c == 0 {
				return r
			}
			mult := p
			if mult < 0 {
				mult = -mult
			}
			sign := int64(1)
			if p < 0 {
				sign = -1
			}
			out := Row{Coef: make([]int64, n)}
			for i := range r.Coef {
				out.Coef[i] = r.Coef[i]*mult - c*sign*eq.Coef[i]
			}
			out.Const = r.Const*mult - c*sign*eq.Const
			return out
		}
		for i := range eqs {
			eqs[i] = subst(eqs[i])
		}
		for i := range geqs {
			geqs[i] = subst(geqs[i])
		}
	}

	// Fourier–Motzkin elimination of the remaining variables.
	for v := 0; v < n; v++ {
		if eliminated[v] {
			continue
		}
		var lower, upper, rest []Row // lower: coef > 0 (x >= ...), upper: coef < 0
		for _, raw := range geqs {
			r, ok := normalize(raw, false)
			if !ok {
				return false
			}
			switch {
			case r.Coef[v] > 0:
				lower = append(lower, r)
			case r.Coef[v] < 0:
				upper = append(upper, r)
			default:
				rest = append(rest, r)
			}
		}
		// Combine every lower bound with every upper bound.
		for _, lo := range lower {
			for _, hi := range upper {
				a := lo.Coef[v]  // > 0
				b := -hi.Coef[v] // > 0
				out := Row{Coef: make([]int64, n)}
				for i := range out.Coef {
					out.Coef[i] = lo.Coef[i]*b + hi.Coef[i]*a
				}
				out.Const = lo.Const*b + hi.Const*a
				rest = append(rest, out)
			}
		}
		geqs = rest
	}

	// All variables eliminated: every remaining row is constant.
	for _, r := range geqs {
		allZero := true
		for _, c := range r.Coef {
			if c != 0 {
				allZero = false
				break
			}
		}
		if allZero && r.Const < 0 {
			return false
		}
		if !allZero {
			// Shouldn't happen; be conservative.
			continue
		}
	}
	return true
}
