package feas

import "fixture/internal/affine"

// Region is a derivation the certifier must not reuse.
func Region(affine.Kernel) int { return 0 }
