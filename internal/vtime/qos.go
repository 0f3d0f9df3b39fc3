package vtime

import (
	"sort"

	"autogemm/internal/hw"
	"autogemm/internal/sched"
)

// This file is the replay engine: many jobs, inter-job parallelism,
// and a scheduling policy deciding which job a freed virtual worker
// joins (Simulate is its one-job case). Within a job the discipline is
// the scheduler's — ascending-index claims, a worker stays on its job
// until the claim frontier is exhausted, fluid compute/bandwidth
// progression under the shared hw.Topology contention model. Across
// jobs, PolicyFIFO joins the lowest-ID joinable job (the pre-QoS
// scheduler) and PolicyWeighted runs the same stride-scheduled class
// credit as sched.claimableLocked, so per-class queue-wait and makespan
// of the two policies can be compared in bit-reproducible simulated
// cycles.
//
// Determinism: inputs are pure functions of the plans (per-task costs,
// class/weight/cap metadata recorded at acceptance), jobs are processed
// in ID order, classes in sorted-name order, simultaneously-freed
// workers arbitrate in worker-ID order, and ties between classes break
// toward the lowest head-job ID — identical states always produce
// identical schedules.

// Policy selects the join arbitration of a batch replay.
type Policy int

const (
	// PolicyFIFO joins the lowest-ID joinable job regardless of class —
	// the single-queue discipline the scheduler ran before QoS.
	PolicyFIFO Policy = iota
	// PolicyWeighted replays sched's stride-scheduled weighted claiming:
	// each join decision picks the active class with the lowest pass
	// (ties toward the lowest head-job ID) and advances that class's
	// pass by strideScale/weight; FIFO within a class.
	PolicyWeighted
)

// String names the policy for reports.
func (p Policy) String() string {
	if p == PolicyWeighted {
		return "weighted"
	}
	return "fifo"
}

// batchStrideScale mirrors sched's stride credit numerator: a class's
// pass advances by batchStrideScale/weight per join decision.
const batchStrideScale = 1 << 16

// Job is one batch member: the per-task costs recorded (or precomputed)
// for the job plus the scheduling identity the pool accepted it under
// (sched.JobMeta, via Recorder.Meta).
type Job struct {
	ID     int64            // pool job ID; also the FIFO/tie-break order
	Class  string           // QoS class ("" means the default class)
	Weight int              // class weight; > 0 overrides (latest, by ID, wins)
	Max    int              // participant cap; <= 0 means all workers
	Costs  []sched.TaskCost // per-task cycles/bytes, indexed by task
}

// JobResult is one job's simulated outcome within a batch.
type JobResult struct {
	ID    int64
	Class string
	Tasks int

	// FirstClaim is the virtual time a worker first joined the job.
	// Every job arrives at t = 0, so FirstClaim is also QueueWait — the
	// cycle-accurate queue latency the policy imposed on the job.
	FirstClaim float64
	Finish     float64 // virtual time the job's last task completed
	QueueWait  float64 // == FirstClaim (arrival is t = 0)
}

// BatchResult is one simulated batch execution.
type BatchResult struct {
	Workers  int // virtual workers (after clamping to chip cores)
	Policy   Policy
	Makespan float64 // cycles until the last task completed (incl. bandwidth floor)
	Spanned  int     // NUMA/CMG groups the worker set occupies

	// FloorBound reports the batch ran at the socket DRAM bandwidth
	// limit (total traffic / socket bandwidth), as in Simulate.
	FloorBound bool

	Jobs  []JobResult // per-job outcomes, ascending ID
	Busy  []float64   // per-worker busy cycles
	Tasks []int       // per-worker tasks completed
}

// batchClass is one QoS class's replay state.
type batchClass struct {
	name   string
	weight int
	pass   uint64
	jobs   []int // indices into the ID-sorted job slice, ascending ID
}

func (c *batchClass) stride() uint64 {
	w := c.weight
	if w < 1 {
		w = 1
	}
	if w > batchStrideScale {
		w = batchStrideScale
	}
	return uint64(batchStrideScale / w)
}

// SimulateBatch replays a multi-job schedule on `workers` virtual
// workers of the chip under the chosen join policy. All jobs arrive at
// t = 0 (the saturated-queue regime where policy matters most); class
// weights default to the scheduler's (16 for the default class, 1
// otherwise) unless a job carries an explicit Weight.
//
// workers is clamped to [1, chip.Cores]. With one worker each joined
// job runs to completion as the exact in-order sum of its compute
// costs — no penalties, no floor — matching Simulate's serial baseline,
// so FIFO and weighted makespans coincide at W = 1 and only per-job
// finish order differs.
func SimulateBatch(chip *hw.Chip, workers int, batch []Job, policy Policy) BatchResult {
	top := hw.NewTopology(chip)
	w := top.ClampCores(workers)
	res := BatchResult{
		Workers: w,
		Policy:  policy,
		Spanned: top.GroupsSpanned(w),
		Busy:    make([]float64, w),
		Tasks:   make([]int, w),
	}
	if len(batch) == 0 {
		return res
	}

	jobs := make([]Job, len(batch))
	copy(jobs, batch)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })

	// Per-job replay state.
	n := len(jobs)
	next := make([]int, n)    // claim cursor
	done := make([]int, n)    // completed tasks
	parts := make([]int, n)   // participants joined
	maxw := make([]int, n)    // resolved participant cap
	joined := make([]bool, n) // first join recorded
	res.Jobs = make([]JobResult, n)
	var totalBytes float64
	for ji, j := range jobs {
		res.Jobs[ji] = JobResult{ID: j.ID, Class: className(j.Class), Tasks: len(j.Costs)}
		maxw[ji] = j.Max
		if maxw[ji] <= 0 || maxw[ji] > w {
			maxw[ji] = w
		}
		for _, c := range j.Costs {
			totalBytes += c.Bytes
		}
	}

	// Class table: created in ascending job-ID order (acceptance order),
	// scanned in sorted-name order — both mirror the pool.
	classes := make(map[string]*batchClass)
	var classList []*batchClass
	for ji, j := range jobs {
		name := className(j.Class)
		c, ok := classes[name]
		if !ok {
			weight := 1
			if name == sched.DefaultClass {
				weight = 16
			}
			c = &batchClass{name: name, weight: weight}
			classes[name] = c
			classList = append(classList, c)
		}
		if j.Weight > 0 {
			c.weight = j.Weight
		}
		c.jobs = append(c.jobs, ji)
	}
	sort.Slice(classList, func(i, j int) bool { return classList[i].name < classList[j].name })

	joinable := func(ji int) bool {
		return parts[ji] < maxw[ji] && next[ji] < len(jobs[ji].Costs)
	}
	headJoinable := func(c *batchClass) int {
		for _, ji := range c.jobs {
			if joinable(ji) {
				return ji
			}
		}
		return -1
	}
	// pick is one join decision under the policy; -1 means nothing is
	// joinable. PolicyWeighted charges the chosen class one stride.
	pick := func() int {
		if policy == PolicyFIFO {
			for ji := range jobs {
				if joinable(ji) {
					return ji
				}
			}
			return -1
		}
		var best *batchClass
		bestJob := -1
		for _, c := range classList {
			ji := headJoinable(c)
			if ji < 0 {
				continue
			}
			if best == nil || c.pass < best.pass || (c.pass == best.pass && jobs[ji].ID < jobs[bestJob].ID) {
				best, bestJob = c, ji
			}
		}
		if bestJob >= 0 {
			best.pass += best.stride()
		}
		return bestJob
	}
	join := func(ji int, now float64) {
		parts[ji]++
		if !joined[ji] {
			joined[ji] = true
			res.Jobs[ji].FirstClaim = now
			res.Jobs[ji].QueueWait = now
		}
	}

	if w == 1 {
		// Exact serial baseline: each join runs the whole job in claim
		// order as a plain compute-cycle sum.
		var now float64
		for {
			ji := pick()
			if ji < 0 {
				break
			}
			join(ji, now)
			for _, c := range jobs[ji].Costs {
				now += c.Cycles
			}
			next[ji] = len(jobs[ji].Costs)
			done[ji] = len(jobs[ji].Costs)
			res.Tasks[0] += len(jobs[ji].Costs)
			res.Jobs[ji].Finish = now
		}
		res.Busy[0] = now
		res.Makespan = now
		return res
	}

	penalty := top.SpanPenalty(w) * top.SyncPenalty(w)
	groupBW := top.GroupBandwidth()

	cur := make([]int, w)    // job index being run; -1 = idle
	rc := make([]float64, w) // remaining compute cycles of the current task
	rb := make([]float64, w) // remaining DRAM bytes of the current task
	group := make([]int, w)
	for i := 0; i < w; i++ {
		cur[i] = -1
		group[i] = top.GroupOf(i)
	}
	claim := func(i, ji int) {
		c := jobs[ji].Costs[next[ji]]
		next[ji]++
		cur[i] = ji
		rc[i] = c.Cycles * penalty
		rb[i] = c.Bytes
	}
	// arbitrate assigns free workers in ID order — the replay's stand-in
	// for the pool-lock serialization of concurrent joins.
	arbitrate := func(now float64) {
		for i := 0; i < w; i++ {
			if cur[i] != -1 {
				continue
			}
			ji := pick()
			if ji < 0 {
				return
			}
			join(ji, now)
			claim(i, ji)
		}
	}

	var now float64
	arbitrate(now)

	nDrain := make([]int, top.Groups())
	for {
		active := false
		for g := range nDrain {
			nDrain[g] = 0
		}
		for i := 0; i < w; i++ {
			if cur[i] >= 0 {
				active = true
				if rb[i] > 0 {
					nDrain[group[i]]++
				}
			}
		}
		if !active {
			break
		}

		dt := -1.0
		for i := 0; i < w; i++ {
			if cur[i] < 0 {
				continue
			}
			t := rc[i]
			if rb[i] > 0 {
				share := groupBW / float64(nDrain[group[i]])
				if tm := rb[i] / share; tm > t {
					t = tm
				}
			}
			if dt < 0 || t < dt {
				dt = t
			}
		}

		for i := 0; i < w; i++ {
			if cur[i] < 0 {
				continue
			}
			res.Busy[i] += dt
			if rc[i] -= dt; rc[i] <= finishEps {
				rc[i] = 0
			}
			if rb[i] > 0 {
				share := groupBW / float64(nDrain[group[i]])
				if rb[i] -= share * dt; rb[i] <= finishEps {
					rb[i] = 0
				}
			}
		}
		now += dt

		// Completions first (same-job continuation is the lock-free
		// cursor claim), then joins for freed workers.
		for i := 0; i < w; i++ {
			if cur[i] < 0 || rc[i] != 0 || rb[i] != 0 {
				continue
			}
			ji := cur[i]
			res.Tasks[i]++
			done[ji]++
			if done[ji] == len(jobs[ji].Costs) {
				res.Jobs[ji].Finish = now
			}
			if next[ji] < len(jobs[ji].Costs) {
				claim(i, ji)
			} else {
				cur[i] = -1
			}
		}
		arbitrate(now)
	}

	res.Makespan = now
	floor := totalBytes / top.SocketBandwidth()
	if floor > res.Makespan {
		res.Makespan = floor
	}
	if totalBytes > 0 && res.Makespan <= floor*(1+1e-9) {
		res.FloorBound = true
	}
	return res
}

// className resolves "" to the scheduler's default class.
func className(c string) string {
	if c == "" {
		return sched.DefaultClass
	}
	return c
}

// Quantile returns the q-quantile (0 <= q <= 1, nearest-rank) of vals;
// 0 for an empty slice. It sorts a copy — callers pass raw queue-wait
// collections straight from a BatchResult.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}
