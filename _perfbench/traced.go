package main

import (
	"fmt"
	"time"

	"autogemm"
	"autogemm/internal/workload"
)

// A traced run (-trace 1) reports the per-layer metrics. It first runs
// the workload untraced for a share of the budget, then traced for
// another share — the difference between the two medians is the
// tracing overhead — then times the layers an operation cannot reach
// (probes.go) and replays a sample of the workload's inputs through
// the serving handler, so every layer's metrics exist on every
// workload. Spans are written out when the run ends.

// Shares of -seconds spent in each part of a traced run.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	probeShare    = 0.2
	serveShare    = 0.1
)

// callerOpBase keeps the closed-loop operations' ids apart from the
// served requests' ids in the same trace.
const callerOpBase = 1 << 40

// traceClosedLoop is the traced run of a closed-loop workload: loop
// runs its operations for a budget through the given caller.
func traceClosedLoop(cfg config, rep *report, eng *autogemm.Engine, loop func(*caller, time.Duration) *samples,
	probs []*problem, planShapes []shape, probe *serveInputs, probeRate, probeBatchRate float64) error {
	total := seconds(cfg.seconds)
	base := loop(&caller{eng: eng}, time.Duration(untracedShare*float64(total)))
	before := eng.PlanCacheStats()
	tr := newTracer()
	cl := &caller{eng: eng, tr: tr, ops: callerOpBase}
	traced := loop(cl, time.Duration(tracedShare*float64(total)))
	after := eng.PlanCacheStats()
	rep.schedLayer(before, after, cl.ops-callerOpBase)
	rep.apiLayer(tr, after)
	if err := probeLayers(rep, probs, planShapes, time.Duration(probeShare*float64(total))); err != nil {
		return err
	}
	if err := serveProbe(cfg, rep, tr, probe, probeRate, probeBatchRate, time.Duration(serveShare*float64(total))); err != nil {
		return err
	}
	rep.traceChecks(tr, base.calls, traced.calls)
	return tr.write(cfg.traceDir, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
}

func traceResNet(cfg config, rep *report) error {
	eng, _, err := resnetSetup()
	if err != nil {
		return err
	}
	defer eng.Close()
	probs := resnetProblems(cfg.seed)
	cs := make([][]float32, len(probs))
	for i, p := range probs {
		cs[i] = make([]float32, p.M*p.N)
	}
	loop := func(cl *caller, budget time.Duration) *samples { return resnetPasses(cl, probs, cs, budget, rep) }
	// The serving handler sees the layers with the smallest operands;
	// a larger layer's JSON body runs to tens of megabytes.
	l2, _ := workload.ResNet50Layer("L2")
	l6, _ := workload.ResNet50Layer("L6")
	l11, _ := workload.ResNet50Layer("L11")
	probe, err := newServeInputs(cfg.seed, []shape{{l2.M, l2.N, l2.K}, {l11.M, l11.N, l11.K}}, []shape{{l6.M, l6.N, l6.K}}, 1)
	if err != nil {
		return err
	}
	return traceClosedLoop(cfg, rep, eng, loop, probs, resnetShapes(), probe, 2, 0.5)
}

func traceSmall(cfg config, rep *report) error {
	st := newSmallStream(cfg.seed)
	eng, _, err := smallSetup(st.warmShapes())()
	if err != nil {
		return err
	}
	defer eng.Close()
	loop := func(cl *caller, budget time.Duration) *samples {
		warm, _ := smallCalls(cl, st, budget, rep)
		return warm
	}
	// Planning from scratch is timed on shapes of the run's cold kind;
	// the serving handler sees small warm shapes singly and skinny ones
	// in batches.
	var coldShapes []shape
	for i := 0; i < 64; i++ {
		coldShapes = append(coldShapes, st.nextCold().shape)
	}
	var small, skinny []shape
	for _, p := range st.warm {
		if max(p.M, p.N, p.K) > smallBound {
			skinny = append(skinny, p.shape)
		} else if len(small) < 8 {
			small = append(small, p.shape)
		}
	}
	probe, err := newServeInputs(cfg.seed, small, skinny[:min(len(skinny), 4)], batchElems)
	if err != nil {
		return err
	}
	return traceClosedLoop(cfg, rep, eng, loop, st.warm, coldShapes, probe, 100, analyticsRate)
}

// serveProbe replays a sample of a closed-loop workload's inputs open
// loop through a fresh serving engine for the given time, traced.
func serveProbe(cfg config, rep *report, tr *tracer, in *serveInputs, rate, batchRate float64, dur time.Duration) error {
	s, _, err := serveSetup(in, tr)
	if err != nil {
		return err
	}
	defer s.close()
	st := s.replay(in, schedule(newRNG(cfg.seed, 9), dur, rate, batchRate, in), 1<<20, true)
	return s.serveLayer(rep, in, st, nil)
}

// serveLayer records a traced replay's spans and sets the serving
// per-layer metrics. Handler self time subtracts the median
// Engine.Multiply time of the same GEMM, measured on the same engine
// right after the replay (through cl when given, so its calls are
// traced too).
func (s *server) serveLayer(rep *report, in *serveInputs, st replayStats, cl *caller) error {
	if cl == nil {
		cl = &caller{eng: s.eng}
	}
	mult := make([]float64, len(in.single))
	for i, ss := range in.single {
		c := make([]float32, ss.p.M*ss.p.N)
		var ds []time.Duration
		for n := 0; n < 50; n++ {
			d, ok := cl.call(ss.p, c)
			rep.op(ok)
			ds = append(ds, d)
		}
		mult[i] = quantile(msList(ds), 0.5)
	}
	var handler, self, outside, late []float64
	var bytes, gemms, non2xx int64
	missing := 0
	for _, q := range st.reqs {
		rep.op(q.ok)
		h, ok := s.record(q)
		late = append(late, ms(q.sent.Sub(q.due)))
		bytes += int64(q.reqBytes + q.respBytes)
		gemms += int64(q.gemms)
		if q.status != 200 {
			non2xx++
		}
		if !ok {
			missing++
			continue
		}
		if q.batch {
			continue
		}
		hd := ms(h[1].Sub(h[0]))
		handler = append(handler, hd)
		self = append(self, hd-mult[q.idx])
		outside = append(outside, ms(q.latency())-hd)
	}
	if missing > 0 {
		rep.note("%d traced requests have no handler span", missing)
		rep.op(false)
	}
	rep.set("serve.handler_ms_p50", "ms", quantile(handler, 0.5))
	rep.set("serve.handler_ms_p99", "ms", quantile(handler, 0.99))
	rep.set("serve.handler_self_ms_p50", "ms", quantile(self, 0.5))
	rep.set("serve.outside_ms_p50", "ms", quantile(outside, 0.5))
	rep.set("serve.bytes_per_gemm", "count", float64(bytes)/float64(max(gemms, 1)))
	rep.set("serve.gen_late_ms_p99", "ms", quantile(late, 0.99))
	rep.set("serve.backlog_max", "count", float64(st.backlogMax))
	rep.set("serve.non2xx", "count", float64(non2xx))
	rep.classLayer(s.eng.PlanCacheStats())
	return nil
}

func traceServe(cfg config, rep *report) error {
	in, err := newServeInputs(cfg.seed, interactiveShapes(), analyticsShapes(), batchElems)
	if err != nil {
		return err
	}
	tr := newTracer()
	s, _, err := serveSetup(in, tr)
	if err != nil {
		return err
	}
	defer s.close()
	total := cfg.seconds
	r := newRNG(cfg.seed, 8)
	base := s.replay(in, schedule(r, seconds(untracedShare*total), heavyRate, analyticsRate, in), 0, false)
	before := s.eng.PlanCacheStats()
	traced := s.replay(in, schedule(r, seconds(tracedShare*total), heavyRate, analyticsRate, in), 1<<20, true)
	after := s.eng.PlanCacheStats()
	rep.schedLayer(before, after, int64(len(traced.reqs)))
	cl := &caller{eng: s.eng, tr: tr, ops: callerOpBase}
	if err := s.serveLayer(rep, in, traced, cl); err != nil {
		return err
	}
	rep.apiLayer(tr, s.eng.PlanCacheStats())
	var probs []*problem
	for _, ss := range in.single {
		probs = append(probs, ss.p)
	}
	if err := probeLayers(rep, probs, append(interactiveShapes(), analyticsShapes()...), seconds(probeShare*total)); err != nil {
		return err
	}
	lat := func(st replayStats) []time.Duration {
		var out []time.Duration
		for _, q := range st.reqs {
			if q.ok && !q.batch {
				out = append(out, q.latency())
			}
		}
		return out
	}
	for _, q := range base.reqs {
		rep.op(q.ok)
	}
	rep.traceChecks(tr, lat(base), lat(traced))
	return tr.write(cfg.traceDir, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
}
