package parser

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/affine"
)

// Write serializes a kernel back into the DSL. Parse(Write(k)) yields a
// kernel equivalent to k (round-trip property, tested), which makes the
// DSL a durable interchange format for custom kernels.
func Write(k *affine.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s {\n", k.Name)

	// Parameters, sorted for determinism.
	if len(k.Params) > 0 {
		names := make([]string, 0, len(k.Params))
		for n := range k.Params {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s = %d", n, k.Params[n])
		}
		fmt.Fprintf(&b, "  param %s\n", strings.Join(parts, ", "))
	}

	if len(k.Arrays) > 0 {
		b.WriteString("  array ")
		for i, a := range k.Arrays {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Name)
			for _, d := range a.Dims {
				b.WriteByte('[')
				d.Render(&b)
				b.WriteByte(']')
			}
		}
		b.WriteByte('\n')
	}

	for _, n := range k.Nests {
		b.WriteString("  ")
		if n.RepeatCount(map[string]int64{}) != 1 || len(n.Repeat.Params) > 0 {
			// Repeat is always a single parameter in the IR we build.
			for p := range n.Repeat.Params {
				fmt.Fprintf(&b, "repeat %s ", p)
			}
		}
		fmt.Fprintf(&b, "nest %s {\n", n.Name)
		for _, l := range n.Loops {
			b.WriteString("    for ")
			b.WriteString(l.Name)
			b.WriteString(" in ")
			l.Lower.Render(&b)
			b.WriteString("..")
			l.Upper.Render(&b)
			b.WriteByte('\n')
		}
		b.WriteString("    {\n")
		for _, st := range n.Body {
			b.WriteString("      ")
			writeStatement(&b, st)
			b.WriteString("\n")
		}
		b.WriteString("    }\n  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// writeStatement writes one statement in DSL syntax.
func writeStatement(b *strings.Builder, st affine.Statement) {
	var writes, reads []*affine.Ref
	for i := range st.Refs {
		if r := &st.Refs[i]; r.Write {
			writes = append(writes, r)
		} else {
			reads = append(reads, r)
		}
	}
	op := "="
	if st.Reduction {
		op = "+="
		// Drop the implicit accumulator read (re-added by the parser).
		if len(writes) == 1 {
			target := writes[0].String()
			for i, r := range reads {
				if r.String() == target {
					reads = append(reads[:i], reads[i+1:]...)
					break
				}
			}
		}
	}
	b.WriteString(st.Name)
	b.WriteString(": ")
	if len(writes) > 0 {
		writes[0].Render(b)
	}
	b.WriteByte(' ')
	b.WriteString(op)
	b.WriteByte(' ')
	if len(reads) == 0 {
		b.WriteByte('0')
	}
	for i, r := range reads {
		if i > 0 {
			b.WriteString(" * ")
		}
		r.Render(b)
	}
	b.WriteString(" @flops(")
	b.WriteString(strconv.FormatInt(st.FlopsPerIter, 10))
	b.WriteByte(')')
}
