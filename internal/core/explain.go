package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/feas"
	"repro/internal/smt"
)

// ConstraintSlack reports how much headroom one resource constraint has
// under the selected tiles. Slack 0 means the constraint is binding — it
// is what stopped the objective from growing further (in the paper's
// walkthrough, the L1 capacity binds exactly: (Ti+Tk)*Tj = M_L1).
type ConstraintSlack struct {
	Nest     string
	Resource string // "registers/SM", "L1 capacity", "shared capacity", "L2 share"
	Used     int64
	Limit    int64
	// Binding is true when no warp-aligned increase of any tile fits.
	Binding bool
}

// Slack returns Limit - Used.
func (c ConstraintSlack) Slack() int64 { return c.Limit - c.Used }

// resourceNames maps the Sec. IV predicate labels to Explain's rows.
var resourceNames = map[string]string{
	"register":        "registers/SM",
	"shared-capacity": "shared capacity",
	"l1-capacity":     "L1 capacity",
	"l2-share":        "L2 share",
}

// ExplainAnalyzed evaluates every resource constraint of the selection's
// formulation under its chosen tiles and reports per-constraint usage,
// flagging the binding ones; the second return value renders it. It
// reads the predicates of the selection's feas.Region (the system the
// solver decided), memoized on the analysis artifact.
func ExplainAnalyzed(prog *analysis.Program, g *arch.GPU, sel *Selection) ([]ConstraintSlack, string) {
	waf := sel.Opts.WarpAlignmentFactor(g)
	region := feas.Cached(prog, g, modelConfig(sel.Opts))
	var out []ConstraintSlack
	for i := range region.Preds {
		pr := &region.Preds[i]
		used, _ := pr.Eval(sel.Tiles)
		out = append(out, ConstraintSlack{
			Nest: pr.Nest, Resource: resourceNames[pr.Label], Used: used, Limit: pr.Cap,
			Binding: binding(pr, sel.Tiles, waf),
		})
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Nest != out[j].Nest {
			return out[i].Nest < out[j].Nest
		}
		return out[i].Resource < out[j].Resource
	})

	var b strings.Builder
	fmt.Fprintf(&b, "constraint usage for %s on %s (tiles %v):\n", sel.Kernel, sel.GPU, tilesInline(sel.Tiles))
	for _, c := range out {
		mark := " "
		if c.Binding {
			mark = "*" // binding
		}
		pct := 0.0
		if c.Limit > 0 {
			pct = 100 * float64(c.Used) / float64(c.Limit)
		}
		fmt.Fprintf(&b, "%s %-10s %-16s %12d / %-12d (%.1f%%)\n",
			mark, c.Nest, c.Resource, c.Used, c.Limit, pct)
	}
	b.WriteString("(* = binding: one more warp-aligned tile step would not fit)\n")
	renderSearch(&b, &sel.Search)
	return out, b.String()
}

// renderSearch appends the deep solver search telemetry carried by the
// selection — prune attribution per labeled constraint, the incumbent
// objective climb of the Maximize rounds, and the search-depth node
// histogram. Every line is deterministic for a fixed formulation (the
// DFS visit order is static), so the output stays golden-testable;
// elapsed times are deliberately omitted.
func renderSearch(b *strings.Builder, st *smt.Stats) {
	if st.Nodes == 0 {
		return
	}
	fmt.Fprintf(b, "\nsolver search (%d calls, %d nodes, %d rounds):\n",
		st.SolverCalls, st.Nodes, st.Rounds)

	if len(st.PruneByConstraint) > 0 {
		var labels []string
		var total int64
		for l, n := range st.PruneByConstraint {
			labels = append(labels, l)
			total += n
		}
		sort.Strings(labels)
		b.WriteString("  prunes by constraint:\n")
		for _, l := range labels {
			n := st.PruneByConstraint[l]
			fmt.Fprintf(b, "    %-16s %8d (%.1f%%)\n", l, n, 100*float64(n)/float64(total))
		}
	}

	if len(st.Incumbents) > 0 {
		b.WriteString("  incumbent objective climb:\n")
		for _, inc := range st.Incumbents {
			fmt.Fprintf(b, "    round %-3d obj=%-10d after %d nodes\n", inc.Round, inc.Objective, inc.Nodes)
		}
	}

	if len(st.DepthNodes) > 0 {
		b.WriteString("  nodes by search depth:")
		for d, n := range st.DepthNodes {
			fmt.Fprintf(b, " %d:%d", d, n)
		}
		b.WriteString("\n")
	}
}

// binding reports that no warp-aligned increase of any tile the
// predicate reads fits under its cap.
func binding(pr *feas.Predicate, tiles map[string]int64, waf int64) bool {
	raised := make(map[string]int64, len(tiles))
	for n, v := range tiles {
		raised[n] = v
	}
	for _, t := range pr.Terms {
		for _, it := range t.Iters {
			raised[it] = tiles[it] + waf
			lhs, _ := pr.Eval(raised)
			raised[it] = tiles[it]
			if lhs <= pr.Cap {
				return false
			}
		}
	}
	return true
}

func tilesInline(tiles map[string]int64) string {
	names := make([]string, 0, len(tiles))
	for n := range tiles {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, tiles[n])
	}
	return strings.Join(parts, " ")
}
