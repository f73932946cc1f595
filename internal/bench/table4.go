package bench

import (
	eatss "repro"
	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/cuxx"
)

// Table4Col is one column of Table IV: a platform/kernel pair comparing
// the vendor library, the PPCG median, and EATSS.
type Table4Col struct {
	Description string
	Platform    string

	CuXXPPW, PPCGMedPPW, OurPPW             float64
	CuXXEnergyJ, PPCGMedEnergyJ, OurEnergyJ float64
	CuXXGF, PPCGMedGF, OurGF                float64
}

// Table4Result reproduces Table IV: cuBLAS gemm on GA100 and Xavier, and
// cuDNN conv-2d on GA100, against PPCG-median and EATSS. The paper's
// takeaway: PPCG-generated code cannot use tensor cores, yet EATSS
// reaches ~75% of cuBLAS/cuDNN PPW on the GA100 and beats them on the
// Xavier.
type Table4Result struct {
	Cols []Table4Col
}

// Table4 runs the comparison.
func Table4() *Table4Result {
	out := &Table4Result{}

	addGemm := func(g *arch.GPU) {
		params := ParamsFor("gemm", g)
		variants, _ := Explore("gemm", g, params, true, false)
		med := medianVariantBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.GFLOPS })
		cublas := cuxx.Gemm(g, affine.FP64, params["NI"], params["NJ"], params["NK"])
		col := Table4Col{
			Description: "cuBLAS (gemm)", Platform: g.Name,
			CuXXPPW: cublas.PPW, CuXXEnergyJ: cublas.EnergyJ, CuXXGF: cublas.GFLOPS,
			PPCGMedPPW: med.Result.PPW, PPCGMedEnergyJ: med.Result.EnergyJ, PPCGMedGF: med.Result.GFLOPS,
		}
		if best, err := RunEATSS("gemm", g, params); err == nil {
			col.OurPPW = best.Chosen.Result.PPW
			col.OurEnergyJ = best.Chosen.Result.EnergyJ
			col.OurGF = best.Chosen.Result.GFLOPS
		}
		out.Cols = append(out.Cols, col)
	}
	addGemm(arch.GA100())
	addGemm(arch.Xavier())

	g := arch.GA100()
	params := ParamsFor("conv-2d", g)
	variants, _ := Explore("conv-2d", g, params, true, false)
	med := medianVariantBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.GFLOPS })
	cudnn := cuxx.Conv2D(g, affine.FP64, params["NI"], params["NJ"], params["KW"])
	col := Table4Col{
		Description: "cuDNN (conv-2d)", Platform: g.Name,
		CuXXPPW: cudnn.PPW, CuXXEnergyJ: cudnn.EnergyJ, CuXXGF: cudnn.GFLOPS,
		PPCGMedPPW: med.Result.PPW, PPCGMedEnergyJ: med.Result.EnergyJ, PPCGMedGF: med.Result.GFLOPS,
	}
	if best, err := RunEATSS("conv-2d", g, params); err == nil {
		col.OurPPW = best.Chosen.Result.PPW
		col.OurEnergyJ = best.Chosen.Result.EnergyJ
		col.OurGF = best.Chosen.Result.GFLOPS
	}
	out.Cols = append(out.Cols, col)
	return out
}

// medianVariantBy returns the variant whose metric is the space median.
func medianVariantBy(vs []eatss.SpacePoint, metric func(eatss.SpacePoint) float64) eatss.SpacePoint {
	if len(vs) == 0 {
		return eatss.SpacePoint{}
	}
	target := Median(func() []float64 {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = metric(v)
		}
		return xs
	}())
	best := vs[0]
	bestD := diff(metric(best), target)
	for _, v := range vs[1:] {
		if d := diff(metric(v), target); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Render prints Table IV.
func (t4 *Table4Result) Render() string {
	t := NewTable("Table IV: comparison against cuBLAS / cuDNN",
		"description", "platform",
		"cuXX PPW", "PPCG-med PPW", "our PPW",
		"cuXX J", "PPCG-med J", "our J",
		"cuXX GF", "PPCG-med GF", "our GF")
	for _, c := range t4.Cols {
		t.AddRow(c.Description, c.Platform,
			c.CuXXPPW, c.PPCGMedPPW, c.OurPPW,
			c.CuXXEnergyJ, c.PPCGMedEnergyJ, c.OurEnergyJ,
			c.CuXXGF, c.PPCGMedGF, c.OurGF)
	}
	return t.String()
}
