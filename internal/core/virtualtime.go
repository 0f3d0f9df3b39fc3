package core

import (
	"fmt"

	"autogemm/internal/sched"
)

// This file turns an attached plan into a virtual-time cost source.
// With cost accounting enabled, every scheduler task the plan submits
// (one C-tile group per task) charges its precomputed simulated cost —
// compute cycles from the per-band timing simulation plus the DRAM
// traffic it moves — to the worker that ran it (sched.Worker.Charge).
// An installed sched.Timekeeper then observes the real scheduler's
// schedule in simulated time, which is what the -sim-scaling bench mode
// and the internal/vtime replay engine consume.
//
// The costs are a pure function of the plan (shape, blocking, tilings,
// chip), computed once by the same memoized shapeCosts the analytic
// Estimate uses: the task costs a run records are deterministic no
// matter which physical worker claimed which task, or at what
// GOMAXPROCS the host ran.

// EnableCostAccounting precomputes the per-task simulated costs of the
// plan's C-tile groups and turns on cost charging for every subsequent
// Run/Submit. Numeric execution is unchanged — outputs stay
// bit-identical — and runs on pools without a Timekeeper only pay the
// per-task accounting add. Idempotent; safe to call concurrently with
// execution.
func (p *Plan) EnableCostAccounting() error {
	if _, err := p.computeTaskCosts(); err != nil {
		return err
	}
	p.vtCosting.Store(true)
	return nil
}

// TaskCosts returns the plan's per-task simulated costs, indexed by the
// task (C-tile group) index of every job the plan submits. The slice is
// shared — callers must not mutate it.
func (p *Plan) TaskCosts() ([]sched.TaskCost, error) {
	return p.computeTaskCosts()
}

// computeTaskCosts builds (once) the per-group cost vector by summing
// the memoized per-shape block costs over each group's block visits, in
// group order — the same deterministic first-visit order partitionGroups
// fixed at Attach.
func (p *Plan) computeTaskCosts() ([]sched.TaskCost, error) {
	p.mu.Lock()
	tc := p.taskCosts
	p.mu.Unlock()
	if tc != nil {
		return tc, nil
	}

	costs, _, err := p.shapeCosts()
	if err != nil {
		return nil, err
	}
	if p.groups == nil {
		return nil, fmt.Errorf("core: plan not attached to a runtime")
	}
	tc = make([]sched.TaskCost, len(p.groups))
	for gi, group := range p.groups {
		var sum sched.TaskCost
		for _, blk := range group {
			bc, ok := costs[[3]int{blk.MB, blk.NB, blk.KB}]
			if !ok {
				return nil, fmt.Errorf("core: no cost for block shape %dx%dx%d", blk.MB, blk.NB, blk.KB)
			}
			sum.Cycles += bc.total()
			sum.Bytes += bc.dram
		}
		tc[gi] = sum
	}

	p.mu.Lock()
	if p.taskCosts == nil {
		p.taskCosts = tc
	}
	tc = p.taskCosts
	p.mu.Unlock()
	return tc, nil
}
