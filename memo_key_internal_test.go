package eatss

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/feas"
)

// TestMemoKeysDistinguishWholeGPU pins the Program memo keys of the
// feasibility region and the closed-form plan: they key on the whole GPU
// description, so a modified preset that keeps its Name gets its own
// region and plan, while an equal GPU — another pointer to the same
// values — shares the memoized ones.
func TestMemoKeysDistinguishWholeGPU(t *testing.T) {
	p, err := Analyze(mustKernel(t, "gemm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := arch.GA100()
	same := arch.GA100()
	edited := arch.GA100()
	edited.RegsPerSM /= 2 // same Name, halved register file

	cfg := feas.SweepConfig(FP64)
	if feas.Cached(p.prog, g, cfg) != feas.Cached(p.prog, same, cfg) {
		t.Error("equal GPUs got distinct feasibility regions")
	}
	if feas.Cached(p.prog, g, cfg) == feas.Cached(p.prog, edited, cfg) {
		t.Error("a GPU edited under the same Name shares the original's feasibility region")
	}

	run := RunConfig{Precision: FP64}
	plan, err := symbolicPlan(p.prog, g, run)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := symbolicPlan(p.prog, same, run); again != plan {
		t.Error("equal GPUs got distinct closed-form plans")
	}
	other, err := symbolicPlan(p.prog, edited, run)
	if err != nil {
		t.Fatal(err)
	}
	if other == plan {
		t.Error("a GPU edited under the same Name shares the original's closed-form plan")
	}
}

func mustKernel(t *testing.T, name string) *AffineKernel {
	t.Helper()
	k, err := Kernel(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
