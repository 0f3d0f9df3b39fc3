// Package vtime is the virtual-time execution engine: it replays the
// scheduler's work-claiming discipline over recorded per-task simulated
// costs on N virtual workers, under the shared NUMA/CMG contention
// model (hw.Topology). The host has one CPU, so wall-clock multi-worker
// numbers are physically flat; vtime turns the real runtime's schedule
// — per-task costs observed by a sched.Timekeeper during an actual
// execution — into the paper's strong-scaling story (per-chip
// efficiency curves, the A64FX CMG collapse of §V-E).
//
// The replay is deterministic by construction. Its inputs are a chip
// and a cost vector indexed by task — both pure functions of the plan,
// independent of which physical worker happened to claim which task or
// what GOMAXPROCS the recording ran at — and the simulation itself
// iterates only slices in fixed order (no map iteration touches a
// float), so repeated runs produce bit-identical cycle counts.
//
// The claim discipline mirrors internal/sched: tasks are claimed in
// ascending index order; a worker claims the next task the moment it
// finishes its current one; ties between simultaneously-free workers
// break toward the lowest worker ID (in the real pool ties are resolved
// by the race on the atomic cursor — the replay pins them so results
// are reproducible).
package vtime

import (
	"autogemm/internal/hw"
	"autogemm/internal/sched"
)

// finishEps absorbs float residue when a task's remaining work is
// decremented by its own projected finish time: remainders at or below
// it count as done. It is ~10 orders of magnitude below a single kernel
// invocation, so it never changes which task finishes first.
const finishEps = 1e-6

// Result is one simulated execution: the schedule's makespan in cycles
// on the modelled chip, with per-worker accounting.
type Result struct {
	Workers int     // virtual workers simulated (after clamping to chip cores)
	Cycles  float64 // simulated makespan, including the bandwidth floor
	Spanned int     // NUMA/CMG groups the worker set occupies

	// FloorBound reports that the schedule ran at the socket DRAM
	// bandwidth limit: Cycles equals (within rounding) the
	// total-traffic/socket-bandwidth floor, so memory, not the compute
	// critical path, determined the result.
	FloorBound bool

	Busy  []float64 // per-worker busy cycles (task wall time in virtual time)
	Tasks []int     // per-worker tasks completed
}

// Efficiency returns the parallel efficiency of this result against a
// single-worker baseline: base / (Cycles · Workers).
func (r Result) Efficiency(base float64) float64 {
	if r.Cycles <= 0 || r.Workers <= 0 {
		return 0
	}
	return base / (r.Cycles * float64(r.Workers))
}

// Simulate replays `costs` (per-task compute cycles and DRAM bytes, as
// recorded by a sched.Timekeeper or precomputed by
// core.Plan.TaskCosts) on `workers` virtual workers of the chip. It is
// SimulateBatch on a one-job batch: the single job's makespan is the
// result's Cycles.
//
// Contention model, shared with the analytic estimator:
//   - every task's compute cycles are scaled by the topology's
//     SpanPenalty and SyncPenalty for the worker count — the NUMA/CMG
//     cross traffic and barrier overhead of Eqn 13;
//   - each task's DRAM bytes drain at the per-group bandwidth share,
//     split evenly among the tasks concurrently draining in that group
//     (workers fill groups contiguously, worker i on core i); a task
//     completes when both its compute and its traffic are done;
//   - the socket-level bandwidth floor total-bytes/socket-bandwidth
//     bounds the result from below, as in the analytic model.
//
// workers is clamped to [1, chip.Cores]. With one worker the result is
// exactly the in-order sum of the compute costs (matching the analytic
// single-core estimate, which applies no penalties and no floor).
func Simulate(chip *hw.Chip, workers int, costs []sched.TaskCost) Result {
	b := SimulateBatch(chip, workers, []Job{{Costs: costs}}, PolicyFIFO)
	return Result{
		Workers: b.Workers, Cycles: b.Makespan, Spanned: b.Spanned,
		FloorBound: b.FloorBound, Busy: b.Busy, Tasks: b.Tasks,
	}
}
