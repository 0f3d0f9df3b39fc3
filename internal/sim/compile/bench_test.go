package compile_test

import (
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// benchSetup builds one representative kernel and its operands.
func benchSetup(b *testing.B) (*mkernel.Cache, mkernel.Config, []float32, []float32, []float32, int64, int64, int64) {
	cfg := mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 64, Lanes: 4,
		Rotate: true, SigmaAI: 4.0, LoadC: true}
	bo := cfg.Tile
	lda := int64(cfg.KC + cfg.Lanes)
	ldb := int64(bo.NR)
	ldc := int64(bo.NR)
	lenA := int(int64(bo.MR-1)*lda) + cfg.KC + cfg.Lanes
	lenB := int(int64(cfg.KC+2-1)*ldb) + bo.NR
	lenC := int(int64(bo.MR-1)*ldc) + bo.NR
	a := make([]float32, lenA)
	bp := make([]float32, lenB)
	c := make([]float32, lenC)
	for i := range a {
		a[i] = float32(i%13) * 0.5
	}
	for i := range bp {
		bp[i] = float32(i%7) * 0.25
	}
	return mkernel.NewCache(), cfg, a, bp, c, lda, ldb, ldc
}

func BenchmarkKernelInterpreted(b *testing.B) {
	cache, cfg, a, bp, c, lda, ldb, ldc := benchSetup(b)
	p, err := cache.Program(mkernel.Call{Count: 1, Kernel: cfg})
	if err != nil {
		b.Fatal(err)
	}
	ar := sim.NewArena(len(a) + len(bp) + len(c) + 64)
	aAddr := ar.Alloc(len(a))
	bAddr := ar.Alloc(len(bp))
	cAddr := ar.Alloc(len(c))
	ar.Freeze()
	copy(ar.Slice(aAddr, len(a)), a)
	copy(ar.Slice(bAddr, len(bp)), bp)
	m := sim.NewMachine(ar, cfg.Lanes)
	flops := 2 * int64(cfg.Tile.MR) * int64(cfg.Tile.NR) * int64(cfg.KC)
	b.SetBytes(flops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetArg(0, aAddr)
		m.SetArg(1, bAddr)
		m.SetArg(2, cAddr)
		m.SetArg(3, lda)
		m.SetArg(4, ldb)
		m.SetArg(5, ldc)
		if err := m.Run(p, 1<<31-1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCompiled(b *testing.B) {
	cache, cfg, a, bp, c, lda, ldb, ldc := benchSetup(b)
	cp, err := cache.CompiledKernel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := compile.NewEnv(cfg.Lanes)
	flops := 2 * int64(cfg.Tile.MR) * int64(cfg.Tile.NR) * int64(cfg.KC)
	b.SetBytes(flops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Run(e, a, bp, c, 0, 0, 0, lda, ldb, ldc, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}
