package main

import (
	"math"

	"autogemm/internal/refgemm"
)

// shape is one GEMM problem of a workload.
type shape struct{ M, N, K int }

func (s shape) flops() float64 { return 2 * float64(s.M) * float64(s.N) * float64(s.K) }

// problem is a shape with its seeded operands and refgemm reference.
// Operands are exactly M·K and K·N long, as a user would pass them.
type problem struct {
	shape
	a, b, ref []float32
}

// newProblem fills the operands from seed and computes the reference
// C = A·B with refgemm.
func newProblem(s shape, seed uint64) *problem {
	p := &problem{shape: s, a: make([]float32, s.M*s.K), b: make([]float32, s.K*s.N), ref: make([]float32, s.M*s.N)}
	refgemm.Fill(p.a, s.M, s.K, s.K, seed)
	refgemm.Fill(p.b, s.K, s.N, s.N, seed^0x5bd1e995)
	refgemm.GEMM(s.M, s.N, s.K, p.a, s.K, p.b, s.N, p.ref, s.N)
	return p
}

// correct reports whether got matches the refgemm reference within
// refgemm.Tolerance under refgemm.MaxRelErr's measure. Unlike a plain
// maximum it fails on NaN, so a poisoned result cannot slip through.
func (p *problem) correct(got []float32) bool {
	if len(got) != len(p.ref) {
		return false
	}
	for i, w := range p.ref {
		e := math.Abs(float64(got[i])-float64(w)) / math.Max(1, math.Abs(float64(w)))
		if !(e <= refgemm.Tolerance) {
			return false
		}
	}
	return true
}

// sameBits reports whether two results are bit-for-bit identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func zero(c []float32) {
	for i := range c {
		c[i] = 0
	}
}
