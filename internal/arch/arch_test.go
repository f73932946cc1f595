package arch

import (
	"encoding/json"
	"testing"
)

func TestGA100PeakFlops(t *testing.T) {
	g := GA100()
	// Non-tensor peak FP64 at max clock should be ~9.7 TFLOP/s
	// (Table III).
	peak := g.PeakFlops(g.MaxClockMHz, 2)
	if peak < 9.0e12 || peak > 10.5e12 {
		t.Fatalf("GA100 FP64 peak = %.3g, want ~9.7e12", peak)
	}
	// FP32 is twice that.
	if got := g.PeakFlops(g.MaxClockMHz, 1); got < 1.9*peak || got > 2.1*peak {
		t.Fatalf("FP32/FP64 ratio wrong: %.3g vs %.3g", got, peak)
	}
}

func TestXavierPeakFlops(t *testing.T) {
	g := Xavier()
	// Measured cuBLAS FP64 is ~44 GFLOP/s; architectural peak should be
	// of the same order (tens of GFLOP/s).
	peak := g.PeakFlops(g.MaxClockMHz, 2)
	if peak < 30e9 || peak > 120e9 {
		t.Fatalf("Xavier FP64 peak = %.3g, want tens of GFLOP/s", peak)
	}
}

func TestTableIIIResources(t *testing.T) {
	g := GA100()
	if g.SMCount != 108 {
		t.Errorf("GA100 SMs = %d, want 108", g.SMCount)
	}
	if g.L1SharedBytes != 192*1024 {
		t.Errorf("GA100 L1+shared = %d, want 192K", g.L1SharedBytes)
	}
	if g.L2Bytes != 40*1024*1024 {
		t.Errorf("GA100 L2 = %d, want 40M", g.L2Bytes)
	}
	if g.TDPWatts != 250 {
		t.Errorf("GA100 TDP = %g, want 250", g.TDPWatts)
	}

	x := Xavier()
	if x.SMCount != 8 {
		t.Errorf("Xavier SMs = %d, want 8", x.SMCount)
	}
	if x.L2Bytes != 512*1024 {
		t.Errorf("Xavier L2 = %d, want 512K", x.L2Bytes)
	}
	if x.TDPWatts != 30 {
		t.Errorf("Xavier TDP = %g, want 30", x.TDPWatts)
	}
}

func TestPowerBudgetConsistent(t *testing.T) {
	for _, g := range []*GPU{GA100(), Xavier()} {
		idle := g.ConstantWatts + g.StaticWatts
		if idle >= g.TDPWatts {
			t.Errorf("%s: idle power %g >= TDP %g", g.Name, idle, g.TDPWatts)
		}
		// Full dynamic + idle should be able to reach (roughly) TDP —
		// that is what DVFS throttles against.
		full := idle + g.DynSMWatts + g.DynSharedWatts +
			g.DynDRAMWattsPerGBs*g.DRAMBandwidth/1e9 +
			g.DynL2WattsPerGBs*g.L2Bandwidth/1e9
		if full < g.TDPWatts*0.8 {
			t.Errorf("%s: max modeled power %g too far below TDP %g", g.Name, full, g.TDPWatts)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"ga100", "A100", "xavier"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("h100"); ok {
		t.Error("ByName(h100) should fail")
	}
}

func TestWarpsPerBlock(t *testing.T) {
	g := GA100()
	if got := g.WarpsPerBlock(1024); got != 32 {
		t.Errorf("WarpsPerBlock(1024) = %d, want 32", got)
	}
	if got := g.WarpsPerBlock(33); got != 2 {
		t.Errorf("WarpsPerBlock(33) = %d, want 2", got)
	}
}

func TestValidatePresets(t *testing.T) {
	for _, g := range []*GPU{GA100(), Xavier(), V100()} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, g := range []*GPU{GA100(), Xavier(), V100()} {
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if *back != *g {
			t.Errorf("%s: JSON round trip changed the description", g.Name)
		}
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte(`{"Name":"broken","SMCount":0}`)); err == nil {
		t.Fatal("invalid description accepted")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestV100InByName(t *testing.T) {
	if _, ok := ByName("v100"); !ok {
		t.Fatal("v100 preset missing from ByName")
	}
}
