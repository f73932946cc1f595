package arch

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file makes machine descriptions configuration-driven: a GPU's
// JSON encoding can be edited and loaded back, so the pipeline can target
// hardware beyond the paper's two boards without code changes
// (cmd/eatss -gpu-file).

// FromJSON parses a machine description and validates it.
func FromJSON(data []byte) (*GPU, error) {
	var g GPU
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("arch: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadFile reads a machine description from a JSON file.
func LoadFile(path string) (*GPU, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("arch: %w", err)
	}
	return FromJSON(data)
}

// Validate checks that a description is usable by the model generator and
// the simulator.
func (g *GPU) Validate() error {
	check := func(ok bool, what string) error {
		if !ok {
			return fmt.Errorf("arch: %s: invalid %s", g.Name, what)
		}
		return nil
	}
	if g.Name == "" {
		return fmt.Errorf("arch: machine description has no name")
	}
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{g.SMCount > 0, "SM count"},
		{g.ThreadsPerBlock > 0, "threads per block"},
		{g.ThreadsPerWarp > 0, "threads per warp"},
		{g.RegsPerSM > 0, "registers per SM"},
		{g.RegsPerBlock > 0, "registers per block"},
		{g.RegsPerThread > 0, "registers per thread"},
		{g.MaxBlocksPerSM > 0, "max blocks per SM"},
		{g.MaxWarpsPerSM > 0, "max warps per SM"},
		{g.L1SharedBytes > 0, "L1+shared pool"},
		{g.SharedPerBlock > 0, "shared per block"},
		{g.SharedPerSM > 0, "shared per SM"},
		{g.L2Bytes > 0, "L2 size"},
		{g.SectorBytes > 0, "sector size"},
		{g.BaseClockMHz > 0 && g.MaxClockMHz >= g.BaseClockMHz, "clock range"},
		{g.MinClockMHz > 0 && g.MinClockMHz <= g.BaseClockMHz, "min clock"},
		{g.FP32LanesPerSM > 0, "FP32 lanes"},
		{g.FP64Ratio > 0 && g.FP64Ratio <= 1, "FP64 ratio"},
		{g.DRAMBandwidth > 0, "DRAM bandwidth"},
		{g.L2Bandwidth > 0, "L2 bandwidth"},
		{g.SharedBwPerSM > 0, "shared bandwidth"},
		{g.TDPWatts > 0, "TDP"},
		{g.ConstantWatts >= 0 && g.StaticWatts >= 0, "idle power"},
		{g.ConstantWatts+g.StaticWatts < g.TDPWatts, "idle below TDP"},
		{g.SharedPerBlock <= g.SharedPerSM, "shared per block <= per SM"},
		{g.SharedPerSM <= g.L1SharedBytes, "shared per SM <= pool"},
	} {
		if err := check(c.ok, c.what); err != nil {
			return err
		}
	}
	return nil
}

// V100 returns an NVIDIA V100-class description (Volta data-center part) —
// a third platform for generality studies beyond the paper's testbed.
func V100() *GPU {
	return &GPU{
		Name:            "V100",
		SMCount:         80,
		ThreadsPerBlock: 1024,
		ThreadsPerWarp:  32,
		RegsPerSM:       64 * 1024,
		RegsPerBlock:    64 * 1024,
		RegsPerThread:   255,
		MaxBlocksPerSM:  32,
		MaxWarpsPerSM:   64,

		L1SharedBytes:     128 * 1024,
		SharedPerBlock:    48 * 1024,
		SharedPerSM:       96 * 1024,
		L2Bytes:           6 * 1024 * 1024,
		GlobalBytes:       16 << 30,
		SectorBytes:       32,
		CacheLineBytes:    128,
		BypassL2ForShared: false,

		BaseClockMHz:    1245,
		MaxClockMHz:     1380,
		MinClockMHz:     405,
		FP32LanesPerSM:  64,
		FP64Ratio:       0.5,
		DRAMBandwidth:   900e9,
		L2Bandwidth:     2500e9,
		SharedBwPerSM:   220e9,
		LaunchOverhead:  5e-6,
		PowerRampTauSec: 0.030,

		TDPWatts:           300,
		ConstantWatts:      42,
		StaticWatts:        20,
		DynSMWatts:         120,
		DynL2WattsPerGBs:   0.018,
		DynDRAMWattsPerGBs: 0.045,
		DynSharedWatts:     18,
		DynLiveWatts:       90,
	}
}
