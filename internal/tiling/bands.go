package tiling

import (
	"autogemm/internal/mkernel"
)

// Band is one row strip of a panel: a sequence of tiles of equal height
// and contiguous columns. Banding is the seam between a tiling and the
// kernels that run it: Calls lowers a band to its kernel launches, and
// the planner (kernel-key enumeration), the executor (compiled and
// interpreted), both estimators and the plan auditor all iterate those
// calls rather than deciding for themselves whether a band runs fused,
// so the key a plan declares is the key every consumer requests.
type Band struct {
	MR   int // tile height shared by every segment
	Row  int // row offset inside the block
	Col  int // column offset inside the block (lane-aligned)
	Segs []mkernel.Segment
}

// Width returns the band's n extent.
func (b Band) Width() int {
	w := 0
	for _, s := range b.Segs {
		w += s.Tile.NR * s.Count
	}
	return w
}

// Tiles returns the number of micro-tiles the band runs.
func (b Band) Tiles() int {
	n := 0
	for _, s := range b.Segs {
		n += s.Count
	}
	return n
}

// Lowering holds what a band's kernel calls depend on besides its k
// depth: the chip's σ_lane and σ_AI and the plan's rotation and fusion
// choices.
type Lowering struct {
	Lanes   int
	SigmaAI float64
	Rotate  bool
	Fuse    bool
}

// Calls lowers the band at k-chunk depth kc to its kernel launches —
// the one place the paper's epilogue–prologue fusion (§III-C2) is
// decided: with fusion on, a band of more than one tile runs as a
// single fused band kernel; otherwise each segment launches its tile
// kernel Count times, one tile width apart.
func (b Band) Calls(kc int, lw Lowering) []mkernel.Call {
	if lw.Fuse && b.Tiles() > 1 {
		return []mkernel.Call{{
			Row: b.Row, Col: b.Col, Count: 1,
			Band: mkernel.PlanBandConfig(b.Segs, kc, lw.Lanes, lw.Rotate, lw.SigmaAI),
		}}
	}
	calls := make([]mkernel.Call, 0, len(b.Segs))
	col := b.Col
	for _, seg := range b.Segs {
		calls = append(calls, mkernel.Call{
			Row: b.Row, Col: col, Count: seg.Count,
			Kernel: mkernel.PlanKernelConfig(seg.Tile, kc, lw.Lanes, lw.Rotate, lw.SigmaAI),
		})
		col += seg.Tile.NR * seg.Count
	}
	return calls
}

// Bands decomposes the tiling into bands, one per row strip of each
// panel (different panels split rows differently, so banding is
// per-panel). The expansion order matches Rects: row-major across the
// block.
func (tl Tiling) Bands(lanes int) []Band {
	var bands []Band
	rects := tl.Rects(lanes)
	i := 0
	for i < len(rects) {
		j := i
		segs := []mkernel.Segment{}
		cur := rects[i]
		// Collect rects in this row with contiguous columns and equal MR.
		col := cur.Col
		for j < len(rects) && rects[j].Row == cur.Row && rects[j].Tile.MR == cur.Tile.MR && rects[j].Col == col {
			t := rects[j].Tile
			if n := len(segs); n > 0 && segs[n-1].Tile == t {
				segs[n-1].Count++
			} else {
				segs = append(segs, mkernel.Segment{Tile: t, Count: 1})
			}
			col += t.NR
			j++
		}
		bands = append(bands, Band{MR: cur.Tile.MR, Row: cur.Row, Col: cur.Col, Segs: segs})
		i = j
	}
	return bands
}
