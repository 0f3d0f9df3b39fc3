package mkernel

import (
	"fmt"
	"strings"

	"autogemm/internal/asm"
)

// Info summarizes a generated kernel for inspection: the static
// instruction mix, register pressure, rotation scheme and the
// arithmetic-intensity figures that drove tile selection (Table II).
type Info struct {
	Name        string
	Tile        Tile
	KC, Lanes   int
	AIMax       float64 // Eqn 2
	AI          float64 // Eqn 3 at this k_c
	VectorRegs  int     // architectural vector registers used
	RotateA     int     // rows double-buffered for the A-side rotation
	RotateB     bool    // B-side double buffering active
	Instrs      asm.Stats
	FLOPs       float64
	FLOPsPerIns float64 // useful FLOPs per dynamic-instruction estimate (static approximation)
}

// Describe builds the Info for a kernel configuration without keeping
// the program around.
func Describe(cfg Config) (Info, error) {
	g, err := newGen(cfg)
	if err != nil {
		return Info{}, err
	}
	prog, err := Generate(cfg)
	if err != nil {
		return Info{}, err
	}
	stats := prog.CollectStats()
	flops := 2 * float64(cfg.Tile.MR) * float64(cfg.Tile.NR) * float64(cfg.KC)
	info := Info{
		Name: cfg.Name(), Tile: cfg.Tile, KC: cfg.KC, Lanes: cfg.Lanes,
		AIMax:      cfg.Tile.AIMax(cfg.Lanes),
		AI:         cfg.Tile.AI(cfg.KC, cfg.Lanes),
		VectorRegs: prog.VectorRegsUsed(),
		RotateA:    g.rotA,
		RotateB:    g.rotB,
		Instrs:     stats,
		FLOPs:      flops,
	}
	if stats.Total > 0 {
		info.FLOPsPerIns = flops / float64(stats.Total)
	}
	return info, nil
}

// String renders the info as a short report.
func (i Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s\n", i.Name)
	fmt.Fprintf(&b, "  tile %v, k_c=%d, σ_lane=%d\n", i.Tile, i.KC, i.Lanes)
	fmt.Fprintf(&b, "  AI: %.2f at this k_c (max %.2f, Eqns 2-3)\n", i.AI, i.AIMax)
	fmt.Fprintf(&b, "  vector registers: %d/32", i.VectorRegs)
	switch {
	case i.RotateB && i.RotateA > 0:
		fmt.Fprintf(&b, " (B double-buffered, %d A rows rotated)\n", i.RotateA)
	case i.RotateB:
		b.WriteString(" (B double-buffered)\n")
	case i.RotateA > 0:
		fmt.Fprintf(&b, " (%d A rows rotated)\n", i.RotateA)
	default:
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  static mix: %d instructions (%d FMA, %d loads, %d stores, %d ALU, %d prefetch)\n",
		i.Instrs.Total, i.Instrs.FMA, i.Instrs.Loads, i.Instrs.Stores, i.Instrs.ALU, i.Instrs.Prfm)
	fmt.Fprintf(&b, "  %.0f FLOPs (%.1f per static instruction)\n", i.FLOPs, i.FLOPsPerIns)
	return b.String()
}
