package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"autogemm"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/sched"
	"autogemm/internal/workload"
)

// The -json mode measures real wall-clock GFLOP/s of the functional
// engine on the ResNet-50 shapes — interpreted backend vs compiled
// closure-threaded backend, across worker counts — and writes the
// result as BENCH_<tag>.json. This benchmarks the Go execution engine
// itself (the thing internal/sim/compile accelerates), not the modelled
// Arm chips; the cycle-accurate projections stay in -exp.

type benchResult struct {
	Tag        string             `json:"tag"`
	Date       string             `json:"date"`
	Chip       string             `json:"chip"`
	GoMaxProcs int                `json:"goMaxProcs"`
	Workers    []int              `json:"workers"`
	Shapes     []benchShapeResult `json:"shapes"`
	Batch      []benchBatchRun    `json:"batch"`
	Summary    map[string]float64 `json:"summary"`

	// SimScaling holds the virtual-time strong-scaling curves written by
	// `-sim-scaling -sim-update-bench merge` — per-chip efficiency
	// points replayed from a real schedule (see simscaling.go). Unlike
	// the wall-clock sections above it is host-independent.
	SimScaling []simChipScaling `json:"simScaling,omitempty"`

	// SimQoS holds the FIFO-vs-weighted scheduling comparison written
	// by `-sim-qos -sim-update-bench merge` (see simqos.go). Also
	// host-independent: all figures are simulated cycles.
	SimQoS *simQoSReport `json:"simQoS,omitempty"`

	// ServeLoad holds the HTTP serving saturation measurement written by
	// `-serve-load -sim-update-bench merge` (see serveload.go):
	// per-tenant-class throughput, latency percentiles and shed rates
	// under concurrent mixed-class load, plus the live weight-only
	// retune check. Wall-clock figures — host-dependent like Shapes.
	ServeLoad *serveLoadReport `json:"serveLoad,omitempty"`
}

// benchBatchRun is one batch-throughput measurement: the whole shape
// set submitted as a single Engine.MultiplyBatch on an engine with a
// fixed worker-pool size, repeated until minTime. GEMMsPerSec counts
// completed multiplications per second; the scheduler counters come
// from PlanCacheStats at the end of the run.
type benchBatchRun struct {
	Workers        int     `json:"workers"`
	GEMMsPerSec    float64 `json:"gemmsPerSec"`
	JobsSubmitted  int64   `json:"jobsSubmitted"`
	JobsCompleted  int64   `json:"jobsCompleted"`
	TasksStolen    int64   `json:"tasksStolen"`
	QueueHighWater int     `json:"queueHighWater"`
}

type benchShapeResult struct {
	Name string `json:"name"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	// GFLOP/s keyed by backend ("interpreted"/"compiled") then by
	// worker count. The interpreted backend is measured single-threaded
	// only — it is the baseline for the speedup column.
	GFLOPS   map[string]map[string]float64 `json:"gflops"`
	Speedup1 float64                       `json:"speedup1"` // compiled/interpreted, 1 worker

	// Planning overhead through the public engine: first PlanFor on the
	// shape (cold — blocking resolution, DMT, kernel-key enumeration)
	// vs a repeated PlanFor (warm — plan-cache hit).
	PlanColdMicros float64 `json:"planColdMicros"`
	PlanWarmMicros float64 `json:"planWarmMicros"`

	// Tiered-mode planning latency on a fresh PlanModeTiered engine:
	// the cold PlanFor answered by the tier-0 heuristic plan, and the
	// time until the background DMT upgrade has hot-swapped the full
	// plan (FlushUpgrades returns).
	PlanFirstHitMicros float64 `json:"planFirstHitMicros"`
	PlanUpgradeMicros  float64 `json:"planUpgradeMicros"`
}

func runJSONBench(tag, chipName, layers, workersFlag string, minTime time.Duration, assertFirstHit float64) error {
	chip, err := hw.ByName(chipName)
	if err != nil {
		return err
	}
	if spec := os.Getenv("AUTOGEMM_FAULT"); spec != "" {
		if err := faultDrill(spec, chip.Name); err != nil {
			return err
		}
	}
	workers, err := parseWorkers(workersFlag)
	if err != nil {
		return err
	}

	shapes := workload.ResNet50()
	if layers != "" {
		keep := map[string]bool{}
		for _, l := range strings.Split(layers, ",") {
			keep[strings.TrimSpace(l)] = true
		}
		var sel []workload.Shape
		for _, s := range shapes {
			if keep[s.Name] {
				sel = append(sel, s)
			}
		}
		shapes = sel
	}

	res := benchResult{
		Tag:        tag,
		Date:       time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		Chip:       chip.Name,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Summary:    map[string]float64{},
	}

	// One public engine across all shapes: its plan-cache counters give
	// the hit rate reported in the summary.
	eng, err := autogemm.New(chip.Name)
	if err != nil {
		return err
	}

	// Tiered planning latency per shape: first hit (tier-0 heuristic
	// serve) and background-upgrade time. With -assert-first-hit the
	// measurement covers every ResNet-50 shape regardless of -layers
	// and the run fails if any first hit exceeds the bound.
	timedShapes := shapes
	if assertFirstHit > 0 {
		timedShapes = workload.ResNet50()
	}
	tiered, tieredStats, err := timeTieredPlanning(chip.Name, timedShapes)
	if err != nil {
		return err
	}
	if assertFirstHit > 0 {
		for _, s := range timedShapes {
			if fh := tiered[s.Name][0]; fh > assertFirstHit {
				return fmt.Errorf("plan first hit for %s is %.1fµs, above the -assert-first-hit bound %.0fµs",
					s.Name, fh, assertFirstHit)
			}
		}
		fmt.Fprintf(os.Stderr, "first-hit assert ok: all %d shapes under %.0fµs\n",
			len(timedShapes), assertFirstHit)
	}

	var speedups []float64
	for _, s := range shapes {
		fmt.Fprintf(os.Stderr, "bench %s (%dx%dx%d)...\n", s.Name, s.M, s.N, s.K)
		sr := benchShapeResult{Name: s.Name, M: s.M, N: s.N, K: s.K,
			GFLOPS: map[string]map[string]float64{
				"interpreted": {}, "compiled": {},
			}}
		// Slack past the minimal extents lets interior blocks run fully
		// in place (see core.Run's doc comment).
		a := make([]float32, s.M*s.K+4*chip.Lanes)
		b := make([]float32, s.K*s.N+2*s.N+4*chip.Lanes)
		c := make([]float32, s.M*s.N)
		fill(a, 3)
		fill(b, 5)

		interp, err := benchPlan(chip, s, true)
		if err != nil {
			return err
		}
		g, err := measure(interp, c, a, b, 1, s.FLOPs(), minTime)
		if err != nil {
			return fmt.Errorf("%s interpreted: %w", s.Name, err)
		}
		sr.GFLOPS["interpreted"]["1"] = round3(g)

		compiled, err := benchPlan(chip, s, false)
		if err != nil {
			return err
		}
		for _, w := range workers {
			g, err := measure(compiled, c, a, b, w, s.FLOPs(), minTime)
			if err != nil {
				return fmt.Errorf("%s compiled w=%d: %w", s.Name, w, err)
			}
			sr.GFLOPS["compiled"][fmt.Sprint(w)] = round3(g)
		}
		sr.Speedup1 = round3(sr.GFLOPS["compiled"]["1"] / sr.GFLOPS["interpreted"]["1"])
		speedups = append(speedups, sr.Speedup1)

		cold, warm, err := timePlanning(eng, s)
		if err != nil {
			return fmt.Errorf("%s planning: %w", s.Name, err)
		}
		sr.PlanColdMicros = round3(float64(cold.Nanoseconds()) / 1e3)
		sr.PlanWarmMicros = round3(float64(warm.Nanoseconds()) / 1e3)
		sr.PlanFirstHitMicros = tiered[s.Name][0]
		sr.PlanUpgradeMicros = tiered[s.Name][1]

		res.Shapes = append(res.Shapes, sr)
	}

	if len(speedups) > 0 {
		res.Summary["geomeanSpeedup1"] = round3(geomean(speedups))
		sorted := append([]float64(nil), speedups...)
		sort.Float64s(sorted)
		res.Summary["minSpeedup1"] = round3(sorted[0])
		res.Summary["maxSpeedup1"] = round3(sorted[len(sorted)-1])
	}
	res.Summary["planCacheHitRate"] = round3(eng.PlanCacheStats().HitRate)

	// Tier counters from the tiered measurement engine, plus the worst
	// first hit over the timed set — the figure the 500µs budget is
	// judged against.
	res.Summary["tieredHeuristicServed"] = float64(tieredStats.HeuristicServed)
	res.Summary["tieredUpgradesCompleted"] = float64(tieredStats.UpgradesCompleted)
	res.Summary["tieredUpgradesFailed"] = float64(tieredStats.UpgradesFailed)
	res.Summary["tieredNeighborSeeded"] = float64(tieredStats.NeighborSeeded)
	var maxFirstHit float64
	for _, t := range tiered {
		maxFirstHit = math.Max(maxFirstHit, t[0])
	}
	res.Summary["maxPlanFirstHitMicros"] = maxFirstHit

	// Batch throughput: the whole shape set as one MultiplyBatch per
	// repetition, one engine per worker count so the pool size is the
	// only variable.
	for _, w := range workers {
		fmt.Fprintf(os.Stderr, "batch throughput, %d worker(s)...\n", w)
		br, err := benchBatch(chip, shapes, w, minTime)
		if err != nil {
			return fmt.Errorf("batch w=%d: %w", w, err)
		}
		res.Batch = append(res.Batch, br)
	}
	if len(res.Batch) > 1 && res.Batch[0].Workers == 1 {
		base := res.Batch[0].GEMMsPerSec
		last := res.Batch[len(res.Batch)-1]
		res.Summary[fmt.Sprintf("batchSpeedup%dw", last.Workers)] = round3(last.GEMMsPerSec / base)
	}

	out, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + tag + ".json"
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (geomean single-thread speedup %.2fx)\n",
		path, res.Summary["geomeanSpeedup1"])
	return nil
}

// timePlanning measures the cold (first PlanFor — plan construction)
// and warm (second PlanFor — plan-cache hit) planning latency of a
// shape on the shared public engine. The warm figure is the median of
// several probes: a single cache hit is fast enough to be noisy.
func timePlanning(eng *autogemm.Engine, s workload.Shape) (cold, warm time.Duration, err error) {
	start := time.Now()
	if _, err = eng.PlanFor(nil, s.M, s.N, s.K); err != nil {
		return 0, 0, err
	}
	cold = time.Since(start)

	const probes = 5
	times := make([]time.Duration, probes)
	for i := range times {
		start = time.Now()
		if _, err = eng.PlanFor(nil, s.M, s.N, s.K); err != nil {
			return 0, 0, err
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return cold, times[probes/2], nil
}

// timeTieredPlanning measures the tiered engine's two-phase planning
// latency per shape: the cold PlanFor (answered by the instant tier-0
// heuristic plan) and the time until the background DMT upgrade has
// hot-swapped the full plan (FlushUpgrades returns). A first hit only
// happens once per engine and shape, so the first-hit figure is the
// median over several fresh-engine probes — a single sample is at the
// mercy of a GC pause. The upgrade figure and the tier counters come
// from one shared engine that serves every shape; flushing after each
// shape keeps exactly one upgrade in flight. Returns
// {firstHitMicros, upgradeMicros} keyed by shape name.
func timeTieredPlanning(chipName string, shapes []workload.Shape) (map[string][2]float64, autogemm.PlanCacheStats, error) {
	eng, err := autogemm.New(chipName, autogemm.WithPlanMode(autogemm.PlanModeTiered))
	if err != nil {
		return nil, autogemm.PlanCacheStats{}, err
	}
	defer eng.Close()
	out := make(map[string][2]float64, len(shapes))
	for _, s := range shapes {
		const probes = 5
		hits := make([]time.Duration, probes)
		for i := range hits {
			pe, err := autogemm.New(chipName, autogemm.WithPlanMode(autogemm.PlanModeTiered))
			if err != nil {
				return nil, autogemm.PlanCacheStats{}, err
			}
			start := time.Now()
			if _, err := pe.PlanFor(nil, s.M, s.N, s.K); err != nil {
				pe.Close()
				return nil, autogemm.PlanCacheStats{}, fmt.Errorf("%s tiered plan: %w", s.Name, err)
			}
			hits[i] = time.Since(start)
			// Let the probe's background upgrade settle before closing
			// its pool out from under it.
			if err := pe.FlushUpgrades(context.Background()); err != nil {
				pe.Close()
				return nil, autogemm.PlanCacheStats{}, err
			}
			pe.Close()
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })

		if _, err := eng.PlanFor(nil, s.M, s.N, s.K); err != nil {
			return nil, autogemm.PlanCacheStats{}, fmt.Errorf("%s tiered plan: %w", s.Name, err)
		}
		start := time.Now()
		if err := eng.FlushUpgrades(context.Background()); err != nil {
			return nil, autogemm.PlanCacheStats{}, err
		}
		upgrade := time.Since(start)
		out[s.Name] = [2]float64{
			round3(float64(hits[probes/2].Nanoseconds()) / 1e3),
			round3(float64(upgrade.Nanoseconds()) / 1e3),
		}
	}
	return out, eng.PlanCacheStats(), nil
}

// parseWorkers turns the -workers flag into a worker-count list; when
// empty it defaults to powers of two up to NumCPU (plus NumCPU itself
// when that is not a power of two).
func parseWorkers(flagVal string) ([]int, error) {
	if flagVal == "" {
		maxW := runtime.NumCPU()
		var workers []int
		for w := 1; w <= maxW; w *= 2 {
			workers = append(workers, w)
		}
		if last := workers[len(workers)-1]; last != maxW {
			workers = append(workers, maxW)
		}
		return workers, nil
	}
	var workers []int
	for _, f := range strings.Split(flagVal, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// benchBatch measures GEMMs/sec of Engine.MultiplyBatch over the shape
// set on a fresh engine whose pool has w workers. One warm repetition
// resolves every plan; the timed loop then measures pure batch
// execution.
func benchBatch(chip *hw.Chip, shapes []workload.Shape, w int, minTime time.Duration) (benchBatchRun, error) {
	eng, err := autogemm.New(chip.Name, autogemm.WithWorkers(w))
	if err != nil {
		return benchBatchRun{}, err
	}
	defer eng.Close()

	batch := make([]autogemm.GEMM, len(shapes))
	for i, s := range shapes {
		g := autogemm.GEMM{M: s.M, N: s.N, K: s.K,
			A: make([]float32, s.M*s.K+4*chip.Lanes),
			B: make([]float32, s.K*s.N+2*s.N+4*chip.Lanes),
			C: make([]float32, s.M*s.N),
		}
		fill(g.A, 3)
		fill(g.B, 5)
		batch[i] = g
	}

	if err := eng.MultiplyBatch(context.Background(), batch, autogemm.SubmitOpts{}); err != nil {
		return benchBatchRun{}, err
	}
	var reps int
	start := time.Now()
	for {
		if err := eng.MultiplyBatch(context.Background(), batch, autogemm.SubmitOpts{}); err != nil {
			return benchBatchRun{}, err
		}
		reps++
		if time.Since(start) >= minTime {
			break
		}
	}
	sec := time.Since(start).Seconds()
	st := eng.PlanCacheStats()
	return benchBatchRun{
		Workers:        w,
		GEMMsPerSec:    round3(float64(reps*len(shapes)) / sec),
		JobsSubmitted:  st.SchedJobsSubmitted,
		JobsCompleted:  st.SchedJobsCompleted,
		TasksStolen:    st.SchedTasksStolen,
		QueueHighWater: st.SchedQueueHighWater,
	}, nil
}

func benchPlan(chip *hw.Chip, s workload.Shape, forceInterp bool) (*core.Plan, error) {
	opts := core.AutoOptions(chip)
	opts.ForceInterp = forceInterp
	return core.NewPlan(chip, s.M, s.N, s.K, opts)
}

// measure times repetitions of one job claimed by up to `workers` pool
// workers until minTime has elapsed and returns GFLOP/s. The first
// (untimed) repetition warms the kernel and scratch caches.
func measure(plan *core.Plan, c, a, b []float32, workers int, flops float64, minTime time.Duration) (float64, error) {
	run := func() error {
		fut, err := plan.Submit(context.Background(), c, a, b, workers, sched.QoS{})
		if err != nil {
			return err
		}
		return fut.Wait()
	}
	if err := run(); err != nil {
		return 0, err
	}
	var reps int
	start := time.Now()
	for {
		if err := run(); err != nil {
			return 0, err
		}
		reps++
		if time.Since(start) >= minTime {
			break
		}
	}
	sec := time.Since(start).Seconds() / float64(reps)
	return flops / sec / 1e9, nil
}

func fill(s []float32, seed uint32) {
	x := seed | 1
	for i := range s {
		x = x*1664525 + 1013904223
		s[i] = float32(x>>16)/65536*2 - 1
	}
}

func geomean(xs []float64) float64 {
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
