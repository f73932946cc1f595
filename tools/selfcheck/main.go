// Command selfcheck is the repo's self-lint: a stdlib-only static
// analyzer (go/ast + go/parser) enforcing project invariants that `go
// vet` cannot express:
//
//	R1  every span opened with obs.Start / obs.BeginSweep in a function
//	    is closed there — an End()/Finish() call on the span variable
//	    (including inside defers and closures) — or deliberately escapes
//	    (returned, stored, or passed on);
//	R2  every exported function whose name ends in "Ctx" and takes a
//	    context.Context actually uses it (the ...Ctx naming contract:
//	    the suffix promises the context is threaded through);
//	R3  no internal/ package reads the wall clock via time.Now outside
//	    internal/obs/** and internal/bench/** — pipeline code must use
//	    obs.Now() so tests can swap the clock (obs.SetClock);
//	R4  every metric registered through obs.NewCounter / obs.NewGauge /
//	    obs.NewHistogram has a literal, snake_case, dot-namespaced name
//	    ("serve.queue_depth", not "queueDepth" or a computed string),
//	    and each name is registered at exactly one call site — two
//	    registrations of one name would split or shadow the series;
//	R5  no code under internal/serve/** or internal/sweep/** calls
//	    context.Background() or context.TODO() — both packages sit on
//	    request/cancellation paths and must thread the caller's context
//	    (a fresh root context silently detaches work from deadlines,
//	    cancellation and trace propagation);
//	R6  outside internal/smt, only the feas lowering (Region.Lower in
//	    internal/feas) calls RequireLabeled or RangeVar — the Sec. IV
//	    constraint system has one model-side derivation, feas.Region,
//	    and every solver formulation is that region lowered, never a
//	    second hand-written copy;
//	R7  every directory under internal/ that holds non-test Go files is
//	    imported by a non-test file outside that directory — code only
//	    tests run (an oracle, a reference model) lives in _test.go
//	    files, so it is not shipped in the build;
//	R8  the certifier stays independent and post-hoc: no non-test file
//	    of internal/verify imports a package whose results it
//	    certifies (internal/core, feas, analysis, symbolic, ppcg,
//	    gpusim), and no non-test file under internal/ imports
//	    internal/verify — certification is an explicit call from the
//	    root API or a command, never a step inside the pipeline.
//
// Test files and testdata are exempt. Run via `make selfcheck`; exits
// nonzero when any rule fires.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d: [%s] %s\n", f.pos.Filename, f.pos.Line, f.rule, f.msg)
	}
	if len(findings) > 0 {
		fmt.Printf("selfcheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("selfcheck: ok")
}

// run checks every non-test Go file under root, the root of a module,
// and returns the findings sorted by position.
func run(root string) ([]finding, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var findings []finding
	var metrics []metricReg
	pkgs := map[string]token.Position{} // directory -> its first file
	imported := map[string]bool{}       // import paths of non-test files
	fset := token.NewFileSet()

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			findings = append(findings, finding{
				pos: token.Position{Filename: path}, rule: "parse", msg: perr.Error()})
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		findings = append(findings, checkFile(fset, file, filepath.ToSlash(rel))...)
		metrics = append(metrics, collectMetricRegs(fset, file)...)
		dir := filepath.ToSlash(filepath.Dir(rel))
		if _, seen := pkgs[dir]; !seen {
			pkgs[dir] = fset.Position(file.Package)
		}
		for _, imp := range file.Imports {
			imported[strings.Trim(imp.Path.Value, `"`)] = true
		}
		findings = append(findings, checkCertifier(fset, file, module, dir)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	findings = append(findings, checkMetricNames(metrics)...)
	findings = append(findings, checkImported(module, pkgs, imported)...)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}

// checkImported implements R7: pkgs maps each directory holding
// non-test Go files to its first file, imported holds every path a
// non-test file imports. A package cannot import itself, so any import
// of a directory's path comes from outside it.
func checkImported(module string, pkgs map[string]token.Position, imported map[string]bool) []finding {
	var out []finding
	for dir, pos := range pkgs {
		if strings.HasPrefix(dir, "internal/") && !imported[module+"/"+dir] {
			out = append(out, finding{pos: pos, rule: "R7",
				msg: fmt.Sprintf("package %s has no non-test importer; code only tests run belongs in _test.go files", dir)})
		}
	}
	return out
}

// certified are the internal/ packages whose results internal/verify
// re-decides; R8 keeps the certifier from importing them.
var certified = []string{"core", "feas", "analysis", "symbolic", "ppcg", "gpusim"}

// inPkg reports whether dir is the package pkg or one nested under it.
func inPkg(dir, pkg string) bool { return dir == pkg || strings.HasPrefix(dir, pkg+"/") }

// checkCertifier implements R8 for one non-test file in directory dir.
func checkCertifier(fset *token.FileSet, file *ast.File, module, dir string) []finding {
	var out []finding
	for _, imp := range file.Imports {
		p := strings.TrimPrefix(strings.Trim(imp.Path.Value, `"`), module+"/")
		switch {
		case inPkg(dir, "internal/verify"):
			for _, c := range certified {
				if inPkg(p, "internal/"+c) {
					out = append(out, finding{pos: fset.Position(imp.Pos()), rule: "R8",
						msg: fmt.Sprintf("the certifier imports %s, whose results it certifies; re-derive what it checks instead", p)})
				}
			}
		case strings.HasPrefix(dir, "internal/") && inPkg(p, "internal/verify"):
			out = append(out, finding{pos: fset.Position(imp.Pos()), rule: "R8",
				msg: fmt.Sprintf("package %s imports the certifier; certification is a post-hoc call from the root API or a command", dir)})
		}
	}
	return out
}

func checkFile(fset *token.FileSet, file *ast.File, rel string) []finding {
	var out []finding
	// Resolve the local names of the obs, time and context imports —
	// rules must survive import aliasing.
	obsName, timeName, ctxName := "", "time", "context"
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch p {
		case "repro/internal/obs":
			obsName = "obs"
			if local != "" {
				obsName = local
			}
		case "time":
			timeName = "time"
			if local != "" {
				timeName = local
			}
		case "context":
			ctxName = "context"
			if local != "" {
				ctxName = local
			}
		}
	}

	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if obsName != "" {
			out = append(out, checkSpanPairing(fset, fn, obsName, rel)...)
		}
		out = append(out, checkCtxContract(fset, fn, rel)...)
	}
	if timeRestricted(rel) {
		out = append(out, checkTimeNow(fset, file, timeName, rel)...)
	}
	if ctxRestricted(rel) {
		out = append(out, checkBareContext(fset, file, ctxName)...)
	}
	out = append(out, checkLowering(fset, file, rel)...)
	return out
}

// loweringOnly are the smt.Problem declarations R6 confines to the
// feas lowering.
var loweringOnly = map[string]bool{"RequireLabeled": true, "RangeVar": true}

// checkLowering implements R6 for one file.
func checkLowering(fset *token.FileSet, file *ast.File, rel string) []finding {
	if strings.Contains(rel, "internal/smt/") {
		return nil
	}
	var out []finding
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Lower" && fn.Recv != nil &&
			strings.Contains(rel, "internal/feas/") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && loweringOnly[sel.Sel.Name] {
				out = append(out, finding{
					pos:  fset.Position(call.Pos()),
					rule: "R6",
					msg: fmt.Sprintf("%s outside the feas lowering; build the constraint system as a feas.Region and lower it",
						sel.Sel.Name),
				})
			}
			return true
		})
	}
	return out
}

// ctxRestricted reports whether the file lives in a package that must
// thread its caller's context (R5).
func ctxRestricted(rel string) bool {
	for _, p := range []string{"internal/serve/", "internal/sweep/"} {
		if strings.Contains(rel, p) {
			return true
		}
	}
	return false
}

// checkBareContext implements R5 for one restricted file.
func checkBareContext(fset *token.FileSet, file *ast.File, ctxName string) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != ctxName {
			return true
		}
		out = append(out, finding{
			pos:  fset.Position(call.Pos()),
			rule: "R5",
			msg: fmt.Sprintf("context.%s() in a request-path package; thread the caller's context instead",
				sel.Sel.Name),
		})
		return true
	})
	return out
}

// timeRestricted reports whether the file is under internal/ but outside
// the packages allowed to read the wall clock directly.
func timeRestricted(rel string) bool {
	if !strings.Contains(rel, "internal/") {
		return false
	}
	for _, allowed := range []string{"internal/obs/", "internal/bench/"} {
		if strings.Contains(rel, allowed) {
			return false
		}
	}
	return true
}

// spanOpeners are the obs calls that return something requiring an
// explicit close, mapped to the closing method name.
var spanOpeners = map[string]string{
	"Start":      "End",    // obs.Start(ctx, name) -> (ctx, *Span); Span needs End
	"BeginSweep": "Finish", // obs.BeginSweep(...) -> *SweepProgress; needs Finish
}

// checkSpanPairing implements R1 for one function.
func checkSpanPairing(fset *token.FileSet, fn *ast.FuncDecl, obsName, rel string) []finding {
	var out []finding
	type opened struct {
		name  string // local variable bound to the span
		close string // required closing method
		pos   token.Pos
	}
	var spans []opened

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != obsName {
			return true
		}
		closeName, ok := spanOpeners[sel.Sel.Name]
		if !ok {
			return true
		}
		// The span is the last value on the left (obs.Start returns
		// (ctx, span); obs.BeginSweep returns the progress alone).
		tgt := as.Lhs[len(as.Lhs)-1]
		id, ok := tgt.(*ast.Ident)
		if !ok || id.Name == "_" {
			out = append(out, finding{
				pos:  fset.Position(call.Pos()),
				rule: "R1",
				msg: fmt.Sprintf("%s.%s result discarded; the span is never closed",
					obsName, sel.Sel.Name),
			})
			return true
		}
		spans = append(spans, opened{name: id.Name, close: closeName, pos: call.Pos()})
		return true
	})

	for _, sp := range spans {
		if spanClosedOrEscapes(fn.Body, sp.name, sp.close) {
			continue
		}
		out = append(out, finding{
			pos:  fset.Position(sp.pos),
			rule: "R1",
			msg: fmt.Sprintf("span %q opened here has no %s() call in this function and does not escape",
				sp.name, sp.close),
		})
	}
	return out
}

// spanClosedOrEscapes reports whether the function body contains
// name.close() anywhere (including defers and closures), or lets the
// value escape: returned, passed as a call argument, stored into a
// field/map/slice, or reassigned.
func spanClosedOrEscapes(body *ast.BlockStmt, name, close string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && sel.Sel.Name == close {
					found = true
					return false
				}
			}
			for _, arg := range n.Args {
				if isIdent(arg, name) {
					found = true // escapes into the callee
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isIdent(r, name) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if isIdent(r, name) {
					found = true // stored somewhere else
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isIdent(el, name) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// checkCtxContract implements R2 for one function.
func checkCtxContract(fset *token.FileSet, fn *ast.FuncDecl, rel string) []finding {
	if !fn.Name.IsExported() || !strings.HasSuffix(fn.Name.Name, "Ctx") {
		return nil
	}
	// Find a parameter of type context.Context.
	var ctxParam string
	for _, field := range fn.Type.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "context" {
			continue
		}
		for _, n := range field.Names {
			ctxParam = n.Name
		}
		if len(field.Names) == 0 {
			ctxParam = "_"
		}
	}
	if ctxParam == "" {
		return nil // no context parameter; the suffix is a misnomer but not this rule's business
	}
	if ctxParam == "_" {
		return []finding{{
			pos:  fset.Position(fn.Pos()),
			rule: "R2",
			msg:  fmt.Sprintf("%s discards its context.Context parameter", fn.Name.Name),
		}}
	}
	used := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == ctxParam {
			used = true
		}
		return !used
	})
	if !used {
		return []finding{{
			pos:  fset.Position(fn.Pos()),
			rule: "R2",
			msg:  fmt.Sprintf("%s never uses its context parameter %q", fn.Name.Name, ctxParam),
		}}
	}
	return nil
}

// metricReg is one obs.New{Counter,Gauge,Histogram} call site. name is
// "" when the first argument is not a plain string literal.
type metricReg struct {
	name string
	kind string // the constructor: NewCounter, NewGauge, NewHistogram
	pos  token.Position
}

// metricCtors are the obs registry constructors R4 audits.
var metricCtors = map[string]bool{
	"NewCounter": true, "NewGauge": true, "NewHistogram": true,
}

// metricNameRE is the house style for registry names: snake_case words,
// at least one dot namespace ("serve.queue_depth", "smt.solve_calls").
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// collectMetricRegs gathers the file's metric registrations for R4
// (which needs the whole tree to catch cross-file duplicates).
func collectMetricRegs(fset *token.FileSet, file *ast.File) []metricReg {
	obsName := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "repro/internal/obs" {
			obsName = "obs"
			if imp.Name != nil {
				obsName = imp.Name.Name
			}
		}
	}
	if obsName == "" {
		return nil
	}
	var out []metricReg
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !metricCtors[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != obsName {
			return true
		}
		reg := metricReg{kind: sel.Sel.Name, pos: fset.Position(call.Pos())}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				reg.name = name
			}
		}
		out = append(out, reg)
		return true
	})
	return out
}

// checkMetricNames implements R4 over the whole tree's registrations.
func checkMetricNames(regs []metricReg) []finding {
	var out []finding
	first := map[string]token.Position{}
	for _, r := range regs {
		switch {
		case r.name == "":
			out = append(out, finding{pos: r.pos, rule: "R4",
				msg: fmt.Sprintf("obs.%s name is not a string literal; registry names must be auditable constants", r.kind)})
		case !metricNameRE.MatchString(r.name):
			out = append(out, finding{pos: r.pos, rule: "R4",
				msg: fmt.Sprintf("metric name %q is not snake_case dot-namespaced (want e.g. \"serve.queue_depth\")", r.name)})
		default:
			if prev, dup := first[r.name]; dup {
				out = append(out, finding{pos: r.pos, rule: "R4",
					msg: fmt.Sprintf("metric %q already registered at %s:%d; a name must have exactly one registration site", r.name, prev.Filename, prev.Line)})
			} else {
				first[r.name] = r.pos
			}
		}
	}
	return out
}

// checkTimeNow implements R3 for one restricted file.
func checkTimeNow(fset *token.FileSet, file *ast.File, timeName, rel string) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != timeName {
			return true
		}
		out = append(out, finding{
			pos:  fset.Position(sel.Pos()),
			rule: "R3",
			msg:  "internal package reads time.Now directly; use obs.Now() so tests can swap the clock",
		})
		return true
	})
	return out
}
