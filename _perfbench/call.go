package main

import (
	"fmt"
	"runtime"
	"time"

	"autogemm"
)

// caller runs the closed-loop workloads' operations: one warm GEMM
// through the public API, timed, with C reset before and the result
// checked after, both outside the timed interval (Multiply accumulates,
// C += A·B).
//
// Untraced, an operation is one Engine.Multiply. Traced, the same work
// is split into the public calls of successive layers — Engine.PlanFor
// (the plan-cache lookup) then Engine.MultiplyPlanned (execution) —
// under one root span per operation.
type caller struct {
	eng *autogemm.Engine
	tr  *tracer // nil: untraced
	ops int64
}

// call runs p once into c and returns the call's duration and whether
// it succeeded with a correct result.
func (cl *caller) call(p *problem, c []float32) (time.Duration, bool) {
	zero(c)
	cl.ops++
	var d time.Duration
	var err error
	if cl.tr == nil {
		t0 := time.Now()
		err = cl.eng.Multiply(c, p.a, p.b, p.M, p.N, p.K)
		d = time.Since(t0)
	} else {
		// Each span is timed at its own boundaries, so whatever runs
		// between the two layer calls shows as uncovered root time.
		t0 := time.Now()
		p0 := time.Now()
		var pl *autogemm.Plan
		pl, err = cl.eng.PlanFor(nil, p.M, p.N, p.K)
		p1 := time.Now()
		var m0, m1 time.Time
		if err == nil {
			m0 = time.Now()
			err = cl.eng.MultiplyPlanned(pl, c, p.a, p.b)
			m1 = time.Now()
		}
		t1 := time.Now()
		d = t1.Sub(t0)
		root := cl.tr.add("autogemm.call", t0, t1, -1, cl.ops)
		cl.tr.add("autogemm.planfor", p0, p1, root, cl.ops)
		if !m0.IsZero() {
			cl.tr.add("autogemm.multiply_planned", m0, m1, root, cl.ops)
		}
	}
	return d, err == nil && p.correct(c)
}

// warmPlans resolves every shape's plan on eng (the set-up's plan
// warm-up) and returns each first resolution's duration.
func warmPlans(eng *autogemm.Engine, shapes []shape) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(shapes))
	for _, s := range shapes {
		t0 := time.Now()
		if _, err := eng.PlanFor(nil, s.M, s.N, s.K); err != nil {
			return nil, fmt.Errorf("plan %dx%dx%d: %w", s.M, s.N, s.K, err)
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// modelGFLOPS is the geometric mean of Engine.Estimate's projection on
// the modelled chip over the plans of the given shapes.
func modelGFLOPS(eng *autogemm.Engine, shapes []shape) (float64, error) {
	var gf []float64
	for _, s := range shapes {
		perf, err := eng.Estimate(s.M, s.N, s.K, nil)
		if err != nil {
			return 0, fmt.Errorf("estimate %dx%dx%d: %w", s.M, s.N, s.K, err)
		}
		gf = append(gf, perf.GFLOPS)
	}
	return geomean(gf), nil
}

// setups collects a run's set-ups: each one's build time and the cold
// first-call duration of each of its shapes (cold[i] is shape i's
// across the set-ups).
type setups struct {
	secs []float64
	cold [][]time.Duration
}

// repeat runs build setupReps times, discarding every result but the
// last, which it returns, and records each build in su. A run repeats
// its set-up before its timed part and again after it, discarding that
// last one too: the two groups sample the host about a run's length
// apart, so one slow host phase moves setup_s and cold_ms_p50 less (see
// quickWindows).
func repeat[T any](su *setups, build func() (T, []time.Duration, error), discard func(T)) (last T, err error) {
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			discard(last)
		}
		runtime.GC() // earlier garbage stays out of the set-up
		t0 := time.Now()
		var c []time.Duration
		if last, c, err = build(); err != nil {
			return last, err
		}
		su.secs = append(su.secs, time.Since(t0).Seconds())
		for i, d := range c {
			if i == len(su.cold) {
				su.cold = append(su.cold, nil)
			}
			su.cold[i] = append(su.cold[i], d)
		}
	}
	return last, nil
}

func closeEngine(e *autogemm.Engine) { e.Close() }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func usList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// within returns the share of durations at or below limit.
func within(ds []time.Duration, limit time.Duration, sent int64) float64 {
	if sent == 0 {
		return 0
	}
	n := 0
	for _, d := range ds {
		if d <= limit {
			n++
		}
	}
	return float64(n) / float64(sent)
}

// endToEnd sets the end-to-end metrics every workload reports: lat
// holds its headline operations, cold the first calls on each new
// shape. cold_ms_p50 is the median across shapes of each shape's
// reading, so a shape planned in every set-up repetition counts once;
// a set-up repetition is a window of its own, so a shape's reading is
// the quickWindows quantile over its repetitions, as for latencies.
func (r *report) endToEnd(setupS float64, cold [][]time.Duration, lat *samples, gflops, model, goodput float64) {
	r.set("setup_s", "s", setupS)
	r.set("gflops", "GFLOP/s", gflops)
	r.set("model_gflops", "GFLOP/s", model)
	r.set("lat_ms_p50", "ms", lat.latQuantile(0.50))
	r.set("lat_ms_p90", "ms", lat.latQuantile(0.90))
	var coldMs []float64
	for _, ds := range cold {
		coldMs = append(coldMs, quantile(msList(ds), quickWindows))
	}
	r.set("cold_ms_p50", "ms", median(coldMs))
	r.set("goodput", "ratio", goodput)
	all := msList(lat.calls)
	r.note("%d timed operations in %d windows: pooled p50 %.4f ms, p90 %.4f ms, p99 %.4f ms; %d cold shapes",
		len(all), len(lat.windows()), quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99), len(cold))
}
