// BLAS-style usage: the full SGEMM interface (alpha/beta scaling,
// transposed operands) and batched small GEMM with plan reuse — the
// deep-learning pattern the paper's introduction motivates (many small
// multiplications of one shape).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"autogemm"
)

func main() {
	eng, err := autogemm.New("KP920")
	if err != nil {
		log.Fatal(err)
	}

	// C = 0.5 · Aᵀ·B + 2·C on an irregular shape.
	const m, n, k = 20, 28, 12
	a := make([]float32, k*m) // stored k×m because transA
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%9) - 4
	}
	for i := range b {
		b[i] = float32(i%7) - 3
	}
	for i := range c {
		c[i] = 1
	}
	if err := eng.SGEMM(true, false, m, n, k, 0.5, a, b, 2, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SGEMM(transA, alpha=0.5, beta=2) done; c[0]=%g c[last]=%g\n",
		c[0], c[m*n-1])

	// Batched small GEMM: 64 multiplications of one 8x8x8 shape, all in
	// flight on the engine's scheduler behind one barrier, reusing a
	// single resolved plan (blocking, tiling and kernels generated once).
	const batch, s = 64, 8
	jobs := make([]autogemm.GEMM, batch)
	for i := range jobs {
		g := autogemm.GEMM{M: s, N: s, K: s,
			A: make([]float32, s*s), B: make([]float32, s*s), C: make([]float32, s*s)}
		for j := range g.A {
			g.A[j] = float32((i + j) % 5)
			g.B[j] = float32((i * j) % 3)
		}
		jobs[i] = g
	}
	start := time.Now()
	if err := eng.MultiplyBatch(context.Background(), jobs, autogemm.SubmitOpts{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched %d x (%dx%dx%d) in %v with %d cached plan(s)\n",
		batch, s, s, s, time.Since(start).Round(time.Microsecond), eng.CachedPlans())

	perf, err := eng.Estimate(s, s, s, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projected per-multiplication on %s: %.0f cycles, %.1f GF/s\n",
		eng.ChipName(), perf.Cycles, perf.GFLOPS)
}
