package core

import (
	"fixture/internal/affine"
	"fixture/internal/verify"
)

// Select certifies inside the pipeline.
func Select() affine.Kernel {
	k := affine.Kernel{}
	verify.Check(k)
	return k
}
