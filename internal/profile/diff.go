package profile

import (
	"fmt"
	"strings"
)

// LevelDelta is one attribution level's contribution to the energy gap
// between two profiles.
type LevelDelta struct {
	Level string  `json:"level"`
	A     float64 `json:"a_j"`
	B     float64 `json:"b_j"`
	// Delta is B - A in Joules: negative means B spends less at this
	// level.
	Delta float64 `json:"delta_j"`
}

// DiffReport explains why one tile configuration beats another: the
// per-level energy deltas between two profiles of the same kernel, with
// the dominant contributor named.
type DiffReport struct {
	Kernel string `json:"kernel"`
	GPU    string `json:"gpu"`
	// LabelA/LabelB identify the two configurations (tile strings when
	// the profiles carry them, else "A"/"B").
	LabelA string `json:"label_a"`
	LabelB string `json:"label_b"`

	EnergyA float64 `json:"energy_a_j"`
	EnergyB float64 `json:"energy_b_j"`
	// DeltaJ is EnergyB - EnergyA; negative means B is cheaper.
	DeltaJ float64      `json:"delta_j"`
	TimeA  float64      `json:"time_a_sec"`
	TimeB  float64      `json:"time_b_sec"`
	Winner string       `json:"winner"` // "A", "B" or "tie"
	Levels []LevelDelta `json:"levels"`
	// Dominant is the level with the largest absolute delta — the
	// component that decides the comparison — and DominantShare its
	// fraction of the total absolute per-level movement.
	Dominant      string  `json:"dominant"`
	DominantShare float64 `json:"dominant_share"`
}

// Diff compares two profiles of the same kernel/arch and attributes the
// energy gap to the levels that moved.
func Diff(a, b *Profile) *DiffReport {
	d := &DiffReport{
		Kernel:  a.Kernel,
		GPU:     a.GPU,
		LabelA:  labelOf(a, "A"),
		LabelB:  labelOf(b, "B"),
		EnergyA: a.EnergyJ,
		EnergyB: b.EnergyJ,
		DeltaJ:  b.EnergyJ - a.EnergyJ,
		TimeA:   a.TimeSec,
		TimeB:   b.TimeSec,
	}
	switch {
	case d.DeltaJ < 0:
		d.Winner = "B"
	case d.DeltaJ > 0:
		d.Winner = "A"
	default:
		d.Winner = "tie"
	}
	var absSum float64
	var domAbs float64
	for _, l := range Levels {
		ld := LevelDelta{Level: l, A: a.Energy.Level(l), B: b.Energy.Level(l)}
		ld.Delta = ld.B - ld.A
		d.Levels = append(d.Levels, ld)
		abs := ld.Delta
		if abs < 0 {
			abs = -abs
		}
		absSum += abs
		if abs > domAbs {
			domAbs = abs
			d.Dominant = l
		}
	}
	if d.Dominant == "" {
		d.Dominant = Levels[0]
	}
	if absSum > 0 {
		d.DominantShare = domAbs / absSum
	}
	return d
}

func labelOf(p *Profile, fallback string) string {
	if p.Label != "" {
		return p.Label
	}
	if len(p.Tiles) > 0 {
		return sortedTileNames(p.Tiles)
	}
	return fallback
}

// Render writes the "why A beats B" table. Deterministic for fixed
// inputs (4 significant digits).
func (d *DiffReport) Render() string {
	var b strings.Builder
	winner, loser := d.LabelA, d.LabelB
	saveJ := -d.DeltaJ // energy A saves relative to B
	if d.Winner == "B" {
		winner, loser = d.LabelB, d.LabelA
		saveJ = d.DeltaJ
	}
	fmt.Fprintf(&b, "profile diff: %s on %s\n", d.Kernel, d.GPU)
	fmt.Fprintf(&b, "  A = %s: %s, %s\n", d.LabelA, fmtJ(d.EnergyA), fmtSec(d.TimeA))
	fmt.Fprintf(&b, "  B = %s: %s, %s\n", d.LabelB, fmtJ(d.EnergyB), fmtSec(d.TimeB))
	if d.Winner == "tie" {
		b.WriteString("  verdict: tie — identical energy\n")
	} else {
		pct := 0.0
		if base := max64(d.EnergyA, d.EnergyB); base > 0 {
			pct = 100 * -saveJ / base
		}
		fmt.Fprintf(&b, "  verdict: %s beats %s by %s (%.1f%%), driven by %s (%.0f%% of the movement)\n",
			winner, loser, fmtJ(-saveJ), pct, d.Dominant, 100*d.DominantShare)
	}
	b.WriteString("  level     A            B            delta(B-A)\n")
	for _, ld := range d.Levels {
		marker := ""
		if ld.Level == d.Dominant {
			marker = "  <-- dominant"
		}
		fmt.Fprintf(&b, "  %-8s %-12s %-12s %-12s%s\n",
			ld.Level, fmtJ(ld.A), fmtJ(ld.B), fmtJ(ld.Delta), marker)
	}
	return b.String()
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
