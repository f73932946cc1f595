package affine

import (
	"fmt"
	"sort"
	"strings"
)

// Precision selects the floating-point width of all kernel data.
type Precision int

const (
	// FP32 is IEEE single precision (4 bytes).
	FP32 Precision = iota
	// FP64 is IEEE double precision (8 bytes).
	FP64
)

// Bytes returns the element size in bytes.
func (p Precision) Bytes() int64 {
	if p == FP64 {
		return 8
	}
	return 4
}

// Factor returns the paper's FP_factor (Sec. IV-I): 1 for single precision,
// 2 for double precision.
func (p Precision) Factor() int64 {
	if p == FP64 {
		return 2
	}
	return 1
}

func (p Precision) String() string {
	if p == FP64 {
		return "FP64"
	}
	return "FP32"
}

// Loop is one level of a rectangular loop nest: name, inclusive lower bound,
// exclusive upper bound, unit step. Bounds may reference parameters but not
// iterators (rectangular domains only).
type Loop struct {
	Name  string
	Lower Expr
	Upper Expr
	// Pos is the source position of the loop header (zero when the
	// kernel was not parsed from DSL text).
	Pos Pos
}

// Extent returns the trip count of the loop under the given parameter
// bindings.
func (l Loop) Extent(params map[string]int64) int64 {
	n := l.Upper.Eval(nil, params) - l.Lower.Eval(nil, params)
	if n < 0 {
		return 0
	}
	return n
}

// Array describes a data array: name and per-dimension sizes (parametric).
type Array struct {
	Name string
	Dims []Expr
	// Pos is the source position of the declaration (zero when built
	// programmatically).
	Pos Pos
}

// Elements returns the total number of elements under the parameter
// bindings.
func (a Array) Elements(params map[string]int64) int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d.Eval(nil, params)
	}
	return n
}

// Ref is a single array reference inside a statement.
type Ref struct {
	Array string
	// Subscripts are affine expressions; Subscripts[len-1] is the
	// fastest-varying (innermost / contiguous) dimension.
	Subscripts []Expr
	// Write marks the reference as a store target.
	Write bool
	// Pos is the source position of the reference (zero when built
	// programmatically).
	Pos Pos
}

// UsesIter reports whether any subscript uses the iterator.
func (r Ref) UsesIter(name string) bool {
	for _, s := range r.Subscripts {
		if s.UsesIter(name) {
			return true
		}
	}
	return false
}

// FastestVarying returns the last subscript expression, or the zero Expr if
// the reference is scalar.
func (r Ref) FastestVarying() Expr {
	if len(r.Subscripts) == 0 {
		return Expr{}
	}
	return r.Subscripts[len(r.Subscripts)-1]
}

// Stride1Iters returns, sorted, every iterator that walks the
// fastest-varying subscript with coefficient ±1. Each such iterator yields
// contiguous (coalescable / vectorizable) accesses; subscripts like
// In[i+p][j+q] have two (j and q).
func (r Ref) Stride1Iters() []string {
	fv := r.FastestVarying()
	var out []string
	for name, c := range fv.Iters {
		if c == 1 || c == -1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Stride1Iter returns the first (sorted) stride-1 iterator, or "" if the
// access has none. It allocates nothing.
func (r Ref) Stride1Iter() string {
	first, found := "", false
	for name, c := range r.FastestVarying().Iters {
		if (c == 1 || c == -1) && (!found || name < first) {
			first, found = name, true
		}
	}
	return first
}

// HasStride1 reports whether the named iterator walks the fastest-varying
// subscript with unit stride.
func (r Ref) HasStride1(iter string) bool {
	for _, it := range r.Stride1Iters() {
		if it == iter {
			return true
		}
	}
	return false
}

func (r Ref) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Render writes String's form of r to b.
func (r Ref) Render(b *strings.Builder) {
	b.WriteString(r.Array)
	for _, s := range r.Subscripts {
		b.WriteByte('[')
		s.Render(b)
		b.WriteByte(']')
	}
}

// Statement is the atomic unit of computation inside a loop nest body.
type Statement struct {
	Name string
	// Refs lists every array reference the statement makes. Writes first
	// by convention but order is not semantically meaningful.
	Refs []Ref
	// FlopsPerIter counts the floating-point operations one dynamic
	// instance performs (e.g. 2 for a multiply-accumulate).
	FlopsPerIter int64
	// Reduction marks statements of the form X += expr whose write target
	// does not use the innermost reduction iterator(s); such statements
	// carry loop dependences on the missing iterators.
	Reduction bool
	// Pos is the source position of the statement label (zero when built
	// programmatically).
	Pos Pos
}

// WriteRefs returns the store targets of the statement.
func (s Statement) WriteRefs() []Ref {
	var out []Ref
	for _, r := range s.Refs {
		if r.Write {
			out = append(out, r)
		}
	}
	return out
}

// Nest is a perfectly nested rectangular loop nest with one or more
// statements in its innermost body.
//
// Repeat models a sequential outer loop that PPCG leaves on the host side
// (e.g. the time loop of an iterative stencil, which PPCG does not tile —
// Sec. V-B): the nest body is launched Repeat times as separate GPU kernels.
// The zero Expr means "once".
type Nest struct {
	Name   string
	Loops  []Loop
	Body   []Statement
	Repeat Expr
	// Pos is the source position of the nest header (zero when built
	// programmatically).
	Pos Pos
}

// RepeatCount returns how many times the nest is launched under params
// (at least 1).
func (n Nest) RepeatCount(params map[string]int64) int64 {
	zero := Expr{}
	if n.Repeat.Equal(zero) {
		return 1
	}
	r := n.Repeat.Eval(nil, params)
	if r < 1 {
		return 1
	}
	return r
}

// Depth returns the nesting depth.
func (n Nest) Depth() int { return len(n.Loops) }

// LoopIndex returns the position of the named loop, or -1.
func (n Nest) LoopIndex(name string) int {
	for i, l := range n.Loops {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// Iterations returns the total number of innermost iterations of the nest
// across all repetitions.
func (n Nest) Iterations(params map[string]int64) int64 {
	total := n.RepeatCount(params)
	for _, l := range n.Loops {
		total *= l.Extent(params)
	}
	return total
}

// Flops returns the total floating-point operations of the nest.
func (n Nest) Flops(params map[string]int64) int64 {
	per := int64(0)
	for _, s := range n.Body {
		per += s.FlopsPerIter
	}
	return n.Iterations(params) * per
}

// Refs returns all references from all statements in the body.
func (n Nest) Refs() []Ref {
	var out []Ref
	for _, s := range n.Body {
		out = append(out, s.Refs...)
	}
	return out
}

// Kernel is a sequence of loop nests over a shared set of arrays and
// parameters — the unit EATSS selects tile sizes for.
type Kernel struct {
	Name   string
	Params map[string]int64 // default problem sizes, overridable
	Arrays []Array
	Nests  []Nest
}

// Array returns the named array description.
func (k *Kernel) Array(name string) (Array, bool) {
	for _, a := range k.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return Array{}, false
}

// MaxDepth returns the maximum nesting depth across all nests — the paper's
// L (Sec. IV-B).
func (k *Kernel) MaxDepth() int {
	d := 0
	for _, n := range k.Nests {
		if n.Depth() > d {
			d = n.Depth()
		}
	}
	return d
}

// Flops returns the total floating-point work of the kernel under params.
func (k *Kernel) Flops(params map[string]int64) int64 {
	total := int64(0)
	for _, n := range k.Nests {
		total += n.Flops(params)
	}
	return total
}

// FootprintBytes returns the total distinct data footprint of the kernel.
func (k *Kernel) FootprintBytes(params map[string]int64, prec Precision) int64 {
	total := int64(0)
	for _, a := range k.Arrays {
		total += a.Elements(params) * prec.Bytes()
	}
	return total
}

// WithParams returns a shallow copy of the kernel with the parameter map
// replaced by a merged copy (defaults overridden by overrides).
func (k *Kernel) WithParams(overrides map[string]int64) *Kernel {
	out := *k
	merged := make(map[string]int64, len(k.Params))
	for name, v := range k.Params {
		merged[name] = v
	}
	for name, v := range overrides {
		merged[name] = v
	}
	out.Params = merged
	return &out
}

// Validate checks internal consistency: loop names unique per nest, every
// subscript iterator is declared by an enclosing loop, every referenced
// array is declared, every parameter referenced by a bound, dimension,
// repeat count or subscript is declared in Params, and subscript counts
// match array rank.
//
// Validate runs on every parse and again in every Analyze, so its success
// path formats nothing and sorts nothing: error context is built only
// once a check has failed. When an expression uses several undeclared
// names, the error reports the lexically first.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("affine: kernel has no name")
	}
	if len(k.Nests) == 0 {
		return fmt.Errorf("affine: kernel %q has no loop nests", k.Name)
	}
	declared := func(p string) bool { _, ok := k.Params[p]; return ok }
	paramErr := func(p, where string) error {
		return fmt.Errorf("affine: kernel %q: %s references undeclared parameter %q", k.Name, where, p)
	}
	ranks := make(map[string]int, len(k.Arrays))
	for _, a := range k.Arrays {
		if _, dup := ranks[a.Name]; dup {
			return fmt.Errorf("affine: kernel %q declares array %q twice", k.Name, a.Name)
		}
		ranks[a.Name] = len(a.Dims)
		for _, d := range a.Dims {
			if len(d.Iters) != 0 {
				return fmt.Errorf("affine: array %q dimension %s uses a loop iterator", a.Name, d)
			}
			if p, bad := firstMissing(d.Params, declared); bad {
				return paramErr(p, fmt.Sprintf("array %q dimension", a.Name))
			}
		}
	}
	seen := make(map[string]bool) // loop names of the current nest
	bound := func(it string) bool { return seen[it] }
	for _, n := range k.Nests {
		if p, bad := firstMissing(n.Repeat.Params, declared); bad {
			return paramErr(p, fmt.Sprintf("nest %q repeat count", n.Name))
		}
		clear(seen)
		for _, l := range n.Loops {
			if seen[l.Name] {
				return fmt.Errorf("affine: nest %q has duplicate loop %q", n.Name, l.Name)
			}
			seen[l.Name] = true
			if len(l.Lower.Iters) != 0 || len(l.Upper.Iters) != 0 {
				return fmt.Errorf("affine: nest %q loop %q has non-rectangular bounds", n.Name, l.Name)
			}
			if p, bad := firstMissing(l.Lower.Params, declared); bad {
				return paramErr(p, fmt.Sprintf("nest %q loop %q lower bound", n.Name, l.Name))
			}
			if p, bad := firstMissing(l.Upper.Params, declared); bad {
				return paramErr(p, fmt.Sprintf("nest %q loop %q upper bound", n.Name, l.Name))
			}
		}
		if len(n.Body) == 0 {
			return fmt.Errorf("affine: nest %q has an empty body", n.Name)
		}
		for _, st := range n.Body {
			for _, r := range st.Refs {
				rank, ok := ranks[r.Array]
				if !ok {
					return fmt.Errorf("affine: nest %q references undeclared array %q", n.Name, r.Array)
				}
				if len(r.Subscripts) != rank {
					return fmt.Errorf("affine: reference %s has %d subscripts; array has rank %d",
						r, len(r.Subscripts), rank)
				}
				for _, sub := range r.Subscripts {
					if it, bad := firstMissing(sub.Iters, bound); bad {
						return fmt.Errorf("affine: reference %s uses iterator %q not bound by nest %q",
							r, it, n.Name)
					}
					if p, bad := firstMissing(sub.Params, declared); bad {
						return paramErr(p, fmt.Sprintf("reference %s subscript", r))
					}
				}
			}
		}
	}
	return nil
}

// firstMissing returns the lexically first name with a nonzero coefficient
// in coeffs for which ok is false, the name IterNames/ParamNames order
// would reach first. It allocates nothing.
func firstMissing(coeffs map[string]int64, ok func(string) bool) (name string, found bool) {
	for n, c := range coeffs {
		if c != 0 && !ok(n) && (!found || n < name) {
			name, found = n, true
		}
	}
	return name, found
}

// String renders the kernel as pseudo-C for inspection.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// kernel %s\n", k.Name)
	pnames := make([]string, 0, len(k.Params))
	for name := range k.Params {
		pnames = append(pnames, name)
	}
	sort.Strings(pnames)
	for _, name := range pnames {
		fmt.Fprintf(&b, "// param %s = %d\n", name, k.Params[name])
	}
	for _, n := range k.Nests {
		fmt.Fprintf(&b, "// nest %s\n", n.Name)
		for d, l := range n.Loops {
			indent := strings.Repeat("  ", d)
			fmt.Fprintf(&b, "%sfor (%s = %s; %s < %s; %s++)\n",
				indent, l.Name, l.Lower.String(), l.Name, l.Upper.String(), l.Name)
		}
		indent := strings.Repeat("  ", len(n.Loops))
		for _, st := range n.Body {
			refs := make([]string, len(st.Refs))
			for i, r := range st.Refs {
				refs[i] = r.String()
			}
			fmt.Fprintf(&b, "%s%s: %s // %d flops\n", indent, st.Name, strings.Join(refs, ", "), st.FlopsPerIter)
		}
	}
	return b.String()
}

// Clone returns a deep copy of the kernel: mutating the copy's nests,
// loops or parameters never affects the original (catalog kernels are
// shared singletons, so transforms like scheduling must clone first).
func (k *Kernel) Clone() *Kernel {
	out := &Kernel{Name: k.Name}
	out.Params = make(map[string]int64, len(k.Params))
	for name, v := range k.Params {
		out.Params[name] = v
	}
	out.Arrays = make([]Array, len(k.Arrays))
	for i, a := range k.Arrays {
		out.Arrays[i] = Array{Name: a.Name, Dims: append([]Expr(nil), a.Dims...), Pos: a.Pos}
	}
	out.Nests = make([]Nest, len(k.Nests))
	for i, n := range k.Nests {
		cp := Nest{Name: n.Name, Repeat: n.Repeat, Pos: n.Pos}
		cp.Loops = append([]Loop(nil), n.Loops...)
		cp.Body = make([]Statement, len(n.Body))
		for j, st := range n.Body {
			stc := st
			stc.Refs = append([]Ref(nil), st.Refs...)
			cp.Body[j] = stc
		}
		out.Nests[i] = cp
	}
	return out
}
