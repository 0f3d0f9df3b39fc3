package mkernel

import (
	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
)

// This file defines the kernel launches an execution plan lowers to. A
// plan records kernel cache keys (Call.Key strings); the planner
// enumerates them, the executor and both estimators request them, and
// the plan auditor re-derives them from the plan's tilings to prove a
// loaded plan only names kernels this library can generate. All of them
// obtain their calls from one lowering (tiling.Band.Calls), which
// builds configurations only through the two constructors below, so
// plan keys and cache keys cannot drift apart.

// PlanKernelConfig builds the single-tile kernel configuration a plan
// executes for one tile at a given k-chunk depth.
func PlanKernelConfig(t Tile, kb, lanes int, rotate bool, sigmaAI float64) Config {
	return Config{
		Tile: t, KC: kb, Lanes: lanes,
		Rotate: rotate, LoadC: true, SigmaAI: sigmaAI,
	}
}

// PlanBandConfig builds the fused band-kernel configuration a plan
// executes for a band at a given k-chunk depth.
func PlanBandConfig(segs []Segment, kb, lanes int, rotate bool, sigmaAI float64) BandConfig {
	return BandConfig{
		Segments: segs, KC: kb, Lanes: lanes,
		Rotate: rotate, Fuse: true, LoadC: true, SigmaAI: sigmaAI,
	}
}

// Call is one kernel launch site of a lowered band: either a fused band
// kernel (Band set, Count 1) or Count identical single-tile kernels
// (Kernel) placed left to right from (Row, Col) one tile width apart.
// Row and Col are offsets inside the cache block.
type Call struct {
	Row, Col int
	Count    int
	Band     BandConfig // non-empty Segments: a fused band kernel
	Kernel   Config     // otherwise: the single-tile kernel
}

// fused reports whether the call launches a fused band kernel.
func (c Call) fused() bool { return len(c.Band.Segments) > 0 }

// ColOf returns the column offset of the call's i-th launch.
func (c Call) ColOf(i int) int { return c.Col + i*c.Kernel.Tile.NR }

// Extent returns the rows and columns one launch covers.
func (c Call) Extent() (rows, cols int) {
	if c.fused() {
		return c.Band.Segments[0].Tile.MR, c.Band.Width()
	}
	return c.Kernel.Tile.MR, c.Kernel.Tile.NR
}

// Name returns the launched kernel's variant name.
func (c Call) Name() string {
	if c.fused() {
		return c.Band.Name()
	}
	return c.Kernel.Name()
}

// Key returns the launched kernel's cache key.
func (c Call) Key() Key { return Key(c.Name()) }

// AnalysisOptions returns the analyzer contract of the launched kernel.
func (c Call) AnalysisOptions() (analysis.Options, error) {
	if c.fused() {
		return c.Band.AnalysisOptions()
	}
	return c.Kernel.AnalysisOptions()
}

// generate emits the launched kernel.
func (c Call) generate() (*asm.Program, error) {
	if c.fused() {
		return GenerateBand(c.Band)
	}
	return Generate(c.Kernel)
}
