package main

import (
	"fmt"
	"sort"
	"time"

	"autogemm"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
	"autogemm/internal/sim/compile"
)

// The layers below the public API cannot be reached from inside an
// operation, so the traced run times them by calling their public
// functions on the workload's own inputs: the plan fingerprint,
// core.Produce and core.Attach (without a cache), core.Plan.Run, and
// one compiled micro-kernel alone.

// probeLayers sets the plan, core and compile per-layer metrics.
// probs are the workload's warm problems (executed through core plans
// of the benchmark's own); planShapes are planned from scratch.
func probeLayers(rep *report, probs []*problem, planShapes []shape, budget time.Duration) error {
	chip, err := hw.ByName(chipName)
	if err != nil {
		return err
	}
	opts := core.AutoOptions(chip)

	// plan: the fingerprint every warm call computes.
	var fp []time.Duration
	for i := 0; i < 4000; i++ {
		p := probs[i%len(probs)]
		t0 := time.Now()
		_ = core.RequestOf(chip, p.M, p.N, p.K, opts).Fingerprint()
		fp = append(fp, time.Since(t0))
	}
	rep.set("plan.fingerprint_us_p50", "us", quantile(usList(fp), 0.5))

	// core: planning from scratch, split into Produce and Attach, on
	// the benchmark's own scheduler pool.
	pool := sched.New(0, 0)
	defer pool.Close()
	o := opts
	o.Runtime = pool
	o.TrustedPlan = true // produced in-process, as on the engine's miss path
	plans := map[shape]*core.Plan{}
	var produce, attach []time.Duration
	start := time.Now()
	for i, s := range planShapes {
		if i >= 8 && time.Since(start) > budget/3 {
			break
		}
		t0 := time.Now()
		rec, err := core.Produce(chip, s.M, s.N, s.K, o)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("produce %dx%dx%d: %w", s.M, s.N, s.K, err)
		}
		pl, err := core.Attach(chip, rec, o)
		if err != nil {
			return fmt.Errorf("attach %dx%dx%d: %w", s.M, s.N, s.K, err)
		}
		produce = append(produce, t1.Sub(t0))
		attach = append(attach, time.Since(t1))
		plans[s] = pl
	}
	pm, am := msList(produce), msList(attach)
	rep.set("core.produce_ms_p50", "ms", quantile(pm, 0.5))
	rep.set("core.produce_ms_p90", "ms", quantile(pm, 0.9))
	rep.set("core.attach_ms_p50", "ms", quantile(am, 0.5))
	rep.set("core.attach_ms_p90", "ms", quantile(am, 0.9))

	// core: execution through core.Plan.Run, whole passes over the warm
	// problems until the budget is spent.
	var kcs []int
	for _, p := range probs {
		if plans[p.shape] == nil {
			if plans[p.shape], err = core.NewPlan(chip, p.M, p.N, p.K, o); err != nil {
				return fmt.Errorf("plan %dx%dx%d: %w", p.M, p.N, p.K, err)
			}
		}
		kcs = append(kcs, plans[p.shape].Opts.KC)
	}
	var run []time.Duration
	var runFlops float64
	var runTime time.Duration
	start = time.Now()
	for pass := 0; pass == 0 || (pass < 100 && time.Since(start) < budget/3); pass++ {
		for _, p := range probs {
			c := make([]float32, p.M*p.N)
			t0 := time.Now()
			err := plans[p.shape].Run(c, p.a, p.b)
			d := time.Since(t0)
			ok := err == nil && p.correct(c)
			rep.op(ok)
			if ok {
				run = append(run, d)
				runFlops += p.flops()
				runTime += d
			}
		}
	}
	ru := usList(run)
	rep.set("core.run_us_p50", "us", quantile(ru, 0.5))
	rep.set("core.run_us_p99", "us", quantile(ru, 0.99))
	rep.set("core.run_gflops", "GFLOP/s", runFlops/runTime.Seconds()/1e9)
	var st core.ExecStats
	for _, p := range probs {
		pl := plans[p.shape]
		s := pl.Stats()
		st.InPlaceBlocks += s.InPlaceBlocks
		st.ABInPlaceBlocks += s.ABInPlaceBlocks
		st.PackedBlocks += s.PackedBlocks
		st.InterpBlocks += s.InterpBlocks
	}
	blocks := st.InPlaceBlocks + st.ABInPlaceBlocks + st.PackedBlocks + st.InterpBlocks
	rep.set("core.packed_block_share", "ratio", float64(st.PackedBlocks)/float64(max(blocks, 1)))
	rep.set("core.interp_blocks", "count", float64(st.InterpBlocks))

	// compile: one micro-kernel alone at the plans' median k-chunk.
	sort.Ints(kcs)
	kgf, err := kernelGFLOPS(chip, kcs[len(kcs)/2], budget/6)
	if err != nil {
		return err
	}
	rep.set("compile.kernel_gflops", "GFLOP/s", kgf)
	rep.set("compile.kernel_time_share", "ratio", runFlops/(kgf*1e9)/runTime.Seconds())
	return nil
}

// kernelGFLOPS runs the compiled form of each of the chip's preferred
// register tiles at depth kc over L1-resident panels and returns their
// combined rate.
func kernelGFLOPS(chip *hw.Chip, kc int, budget time.Duration) (float64, error) {
	cache := mkernel.NewCache()
	env := compile.NewEnv(chip.Lanes)
	var flops float64
	var spent time.Duration
	tiles := mkernel.PreferredTiles(chip.Lanes)
	for ti, t := range tiles {
		cp, err := cache.CompiledKernel(mkernel.PlanKernelConfig(t, kc, chip.Lanes, true, chip.SigmaAI))
		if err != nil {
			continue // not provably bound-safe: plans run it interpreted
		}
		lda, ldb, ldc := int64(kc+chip.Lanes), int64(t.NR), int64(t.NR)
		a := make([]float32, cp.Bounds.AExtent(lda))
		b := make([]float32, cp.Bounds.BExtent(ldb))
		c := make([]float32, cp.Bounds.CExtent(ldc))
		refgemm.Fill(a, 1, len(a), len(a), uint64(ti))
		refgemm.Fill(b, 1, len(b), len(b), uint64(ti)+99)
		per := 2 * float64(t.MR*t.NR*kc)
		start := time.Now()
		n := 0
		for ; n < 16 || time.Since(start) < budget/time.Duration(len(tiles)); n++ {
			zero(c)
			if err := cp.Run(env, a, b, c, 0, 0, 0, lda, ldb, ldc, 1<<30); err != nil {
				return 0, fmt.Errorf("kernel %s: %w", t, err)
			}
		}
		spent += time.Since(start)
		flops += per * float64(n)
	}
	if spent == 0 {
		return 0, fmt.Errorf("no preferred tile compiles at kc %d", kc)
	}
	return flops / spent.Seconds() / 1e9, nil
}

// schedLayer sets the scheduler per-layer metrics from the engine's
// counters over the traced phase (before → after) of ops operations.
func (r *report) schedLayer(before, after autogemm.PlanCacheStats, ops int64) {
	jobs := after.SchedJobsSubmitted - before.SchedJobsSubmitted
	r.set("sched.jobs_per_op", "count", float64(jobs)/float64(max(ops, 1)))
	var tasks []float64
	total := 0.0
	for i, w := range after.SchedPerWorker {
		n := float64(w.TasksRun)
		if i < len(before.SchedPerWorker) {
			n -= float64(before.SchedPerWorker[i].TasksRun)
		}
		tasks = append(tasks, n)
		total += n
	}
	stolen := float64(after.SchedTasksStolen - before.SchedTasksStolen)
	r.set("sched.steal_share", "ratio", stolen/max(total, 1))
	maxTasks := 0.0
	for _, n := range tasks {
		maxTasks = max(maxTasks, n)
	}
	r.set("sched.worker_task_imbalance", "ratio", maxTasks/max(total/float64(max(len(tasks), 1)), 1))
	r.set("sched.queue_high_water", "count", float64(after.SchedQueueHighWater))
}

// classLayer sets the per-class queue-wait metrics from a serving
// engine's class counters: claim decisions waited per job.
func (r *report) classLayer(st autogemm.PlanCacheStats) {
	for _, class := range []string{interactiveTenant, analyticsTenant} {
		v := 0.0
		for _, c := range st.SchedClasses {
			if c.Class == class && c.QueueWaitJobs > 0 {
				v = float64(c.QueueWaitClaims) / float64(c.QueueWaitJobs)
			}
		}
		r.set("sched.wait_claims_per_job."+class, "count", v)
	}
}

// apiLayer sets the public-API per-layer metrics: the traced split of
// each call and the plan cache's counters.
func (r *report) apiLayer(tr *tracer, st autogemm.PlanCacheStats) {
	r.set("autogemm.planfor_us_p50", "us", quantile(usList(tr.durations("autogemm.planfor")), 0.5))
	r.set("autogemm.multiply_planned_us_p50", "us", quantile(usList(tr.durations("autogemm.multiply_planned")), 0.5))
	r.set("autogemm.plan_hit_rate", "ratio", st.HitRate)
	r.set("autogemm.plans_built", "count", float64(st.Built))
}

// traceChecks sets the stage-sum results and the tracing overhead: the
// traced operations' median latency against the same operations run
// untraced in the same process just before. The run fails when fewer
// than stageSumPass of the spans of any parent name pass the stage-sum
// tolerance.
func (r *report) traceChecks(tr *tracer, untraced, traced []time.Duration) {
	spans, ok, worst := 0, 0, 0.0
	for _, ss := range tr.stageSums() {
		spans += ss.spans
		ok += ss.ok
		worst = max(worst, ss.uncoveredP50)
		share := float64(ss.ok) / float64(ss.spans)
		r.note("stage sums of %s: %d of %d spans within tolerance (median uncovered share %.4f)",
			ss.name, ss.ok, ss.spans, ss.uncoveredP50)
		if share < stageSumPass {
			r.note("stage-sum check of %s FAILED: %.4f pass, below %.2f", ss.name, share, stageSumPass)
			r.op(false)
		}
	}
	if spans == 0 {
		r.note("stage-sum check FAILED: no span has children")
		r.op(false)
	}
	r.set("trace.stage_sum_ok_share", "ratio", float64(ok)/float64(max(spans, 1)))
	r.set("trace.unaccounted_share_p50", "ratio", worst)
	u, t := quantile(usList(untraced), 0.5), quantile(usList(traced), 0.5)
	r.set("trace.overhead_share", "ratio", t/u-1)
	r.note("traced p50 %.3f us vs untraced %.3f us", t, u)
}
