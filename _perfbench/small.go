package main

import (
	"math"
	"time"

	"autogemm"
	"autogemm/internal/workload"
)

// The small-irregular workload is one caller making Engine.Multiply
// calls on the paper's small shapes (every side at most 80) and its
// skinny K-sweep shapes (K of a few hundred). A warm call is tens of
// microseconds, so the per-call path — plan lookup, fingerprint, job
// submit, pack and dispatch — is a visible share of it. Every
// coldEvery of run time, one call is on a shape not seen before in the
// run: planning (core.Produce, core.Attach) and a plan-cache insert
// beside the hits, so a change that speeds one and slows the other
// shows.

const (
	smallBound    = 80 // §II-A: a shape is small when every side is at most 80
	smallVariants = 3  // jittered warm shapes per paper shape
	smallLimit    = 5 * time.Millisecond

	// coldEvery is the run time between calls on a new shape. A fixed
	// rate in time (about 0.4% of calls on the seed commit) keeps the
	// number of plans a run adds to the cache, and so its memory, the
	// same however fast the warm calls are.
	coldEvery = 100 * time.Millisecond
)

// smallBase returns the paper's shapes the stream is drawn from: the
// Fig 8 cubic sweep up to the small bound, the Fig 7 sub-matrix blocks,
// and the Fig 6 K sweep at M = N = 64, whose K = 128 and 256 points are
// the skinny ones.
func smallBase() []shape {
	var paper []workload.Shape
	for _, w := range workload.SmallSweep() {
		if w.M <= smallBound {
			paper = append(paper, w)
		}
	}
	paper = append(append(paper, workload.Fig7Blocks()...), workload.StepSweep()...)
	var out []shape
	seen := map[shape]bool{}
	for _, w := range paper {
		if s := (shape{w.M, w.N, w.K}); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// jitter scales each side of a paper shape by a seeded factor in
// [0.9, 1.1], so every seed gets distinct shapes (and distinct tilings
// and edge cases) with the same spread of work. Sides within the small
// bound stay within it.
func jitter(s shape, r *rng) shape {
	side := func(v int) int {
		j := max(int(math.Round(float64(v)*(0.9+0.2*r.float()))), 1)
		if v <= smallBound {
			j = min(j, smallBound)
		}
		return j
	}
	return shape{side(s.M), side(s.N), side(s.K)}
}

// smallStream is the seeded call stream: the warm set, up to
// smallVariants distinct jittered copies of each paper shape, and a
// source of shapes not yet seen, which visits the paper shapes in a
// seeded order, round robin.
type smallStream struct {
	warm []*problem
	cs   [][]float32
	pick *rng
	base []shape
	cold int  // cold shapes drawn so far
	jit  *rng // jitter of the cold shapes
	seen map[shape]bool
	seed *rng
}

func newSmallStream(seed uint64) *smallStream {
	st := &smallStream{pick: newRNG(seed, 3), base: smallBase(), jit: newRNG(seed, 4), seen: map[shape]bool{}, seed: newRNG(seed, 5)}
	order := newRNG(seed, 6)
	for i := len(st.base) - 1; i > 0; i-- {
		j := order.intn(i + 1)
		st.base[i], st.base[j] = st.base[j], st.base[i]
	}
	r := newRNG(seed, 2)
	for _, b := range st.base {
		added := 0
		for try := 0; try < 4*smallVariants && added < smallVariants; try++ {
			s := jitter(b, r)
			if st.seen[s] {
				continue // the smallest shapes have fewer distinct copies
			}
			st.seen[s] = true
			st.warm = append(st.warm, newProblem(s, st.seed.next()))
			st.cs = append(st.cs, make([]float32, s.M*s.N))
			added++
		}
	}
	return st
}

func (st *smallStream) warmShapes() []shape {
	out := make([]shape, len(st.warm))
	for i, p := range st.warm {
		out[i] = p.shape
	}
	return out
}

// nextCold returns a problem on a shape the run has not used: the next
// paper shape in the round, jittered, with K raised past any shape
// already seen.
func (st *smallStream) nextCold() *problem {
	s := jitter(st.base[st.cold%len(st.base)], st.jit)
	st.cold++
	for st.seen[s] {
		s.K++
	}
	st.seen[s] = true
	return newProblem(s, st.seed.next())
}

// smallCalls runs the stream until budget is spent and returns the
// warm calls' and the cold calls' samples, in one-second windows.
func smallCalls(cl *caller, st *smallStream, budget time.Duration, rep *report) (warm, cold *samples) {
	warm, cold = &samples{}, &samples{}
	start := time.Now()
	nextCold := coldEvery
	for {
		elapsed := time.Since(start)
		if elapsed >= budget {
			return warm, cold
		}
		win := int(elapsed / time.Second)
		out := warm
		var p *problem
		var c []float32
		if elapsed >= nextCold {
			nextCold += coldEvery
			out = cold
			p = st.nextCold()
			c = make([]float32, p.M*p.N)
		} else {
			j := st.pick.intn(len(st.warm))
			p, c = st.warm[j], st.cs[j]
		}
		d, ok := cl.call(p, c)
		rep.op(ok)
		out.add(d, win, p.flops(), ok)
	}
}

// smallSetup builds an engine and warms the warm set's plans.
func smallSetup(shapes []shape) func() (*autogemm.Engine, []time.Duration, error) {
	return func() (*autogemm.Engine, []time.Duration, error) {
		eng, err := autogemm.New(chipName)
		if err != nil {
			return nil, nil, err
		}
		if _, err := warmPlans(eng, shapes); err != nil {
			eng.Close()
			return nil, nil, err
		}
		return eng, nil, nil
	}
}

func runSmall(cfg config, rep *report) error {
	st := newSmallStream(cfg.seed)
	var su setups
	eng, err := repeat(&su, smallSetup(st.warmShapes()), closeEngine)
	if err != nil {
		return err
	}
	defer eng.Close()
	warm, cold := smallCalls(&caller{eng: eng}, st, seconds(cfg.seconds), rep)
	model, err := modelGFLOPS(eng, st.warmShapes())
	if err != nil {
		return err
	}
	eng.Close()
	last, err := repeat(&su, smallSetup(st.warmShapes()), closeEngine)
	if err != nil {
		return err
	}
	last.Close()
	each := make([][]time.Duration, len(cold.calls))
	for i, d := range cold.calls {
		each[i] = []time.Duration{d}
	}
	rep.endToEnd(median(su.secs), each, warm, warm.rate(), model, within(warm.calls, smallLimit, warm.sent))
	rep.note("%d cold calls: p90 %.3f ms", cold.sent, quantile(msList(cold.calls), 0.9))
	return nil
}
