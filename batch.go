package autogemm

import (
	"context"
	"fmt"

	"autogemm/internal/core"
)

// This file is the serving surface on top of the scheduler runtime:
// Submit (a future per GEMM) and MultiplyBatch (many GEMMs, one
// barrier), both ctx-first and tagged with per-call SubmitOpts. Both
// execute through the engine's persistent worker pool — no per-call
// goroutines — with inter-job parallelism: workers that exhaust one
// GEMM's tasks move to the next submitted GEMM, so a batch of small
// shapes never strands workers behind one slow multiplication. See
// docs/INTERNALS.md, "Runtime & scheduling".

// GEMM describes one C += A·B problem for MultiplyBatch or Submit:
// row-major float32 matrices A (M×K), B (K×N) and C (M×N), with
// optional per-problem algorithm parameters (nil Opts uses the
// engine's defaults). Shapes may differ freely across a batch; plans
// are served from the engine's plan cache per (shape, options)
// fingerprint.
type GEMM struct {
	C, A, B []float32
	M, N, K int
	Opts    *Options
}

// Future is a pending asynchronous GEMM. Wait blocks until the
// submitted job has completed and returns its first error; it is
// idempotent and safe to call from multiple goroutines.
type Future struct{ f *core.RunFuture }

// Wait blocks for completion and returns the job's first error.
func (f *Future) Wait() error { return f.f.Wait() }

// Done returns a channel closed when the job completes (every task ran
// or was skipped). After Done, Wait returns without blocking — the
// select-friendly completion signal a server multiplexing many futures
// needs.
func (f *Future) Done() <-chan struct{} { return f.f.Done() }

// OnDone invokes fn with the job's completion error exactly once, on a
// goroutine owned by the scheduler runtime — never inside a pool
// worker, so fn may submit follow-up work or block briefly. It is how
// a streaming server fans many futures into one channel without
// parking a goroutine per Wait. The ordering contract matches the
// scheduler's: fn is asynchronous with respect to Wait and Done — see
// docs/INTERNALS.md, "Runtime & scheduling".
func (f *Future) OnDone(fn func(error)) { f.f.OnDone(fn) }

// Submit enqueues one GEMM on the engine's scheduler under o.QoS and
// returns a future for its completion; all pool workers may claim the
// job. Planning (or a plan-cache hit) happens synchronously, so shape
// and option errors surface here; execution errors surface from Wait.
// The operand slices must stay untouched until Wait returns. Submit
// blocks while the scheduler is at its queue depth (see
// WithQueueDepth), refuses with ErrAdmission when o.QoS's class is at
// its depth bound or its deadline already passed, and fails with
// ErrClosed after Close.
//
// ctx and o.QoS.Deadline compose — whichever fires first cancels the
// job. Cancellation while blocked on backpressure aborts the submission
// with ctx.Err(); cancellation after acceptance fails the job promptly
// (remaining tasks are skipped) and its future returns ctx.Err(). A
// zero SubmitOpts runs under the engine's default class.
//
// Results are bit-identical to a serial Multiply of the same problem:
// the k chunks of each C tile accumulate in ascending order inside one
// task regardless of how many workers claim the job.
func (e *Engine) Submit(ctx context.Context, g GEMM, o SubmitOpts) (*Future, error) {
	p, err := e.plan(g.Opts, g.M, g.N, g.K)
	if err != nil {
		return nil, err
	}
	rf, err := p.Submit(ctx, g.C, g.A, g.B, 0, o.QoS.toSched())
	if err != nil {
		return nil, wrapExec(err)
	}
	return &Future{f: rf}, nil
}

// MultiplyBatch computes C += A·B for every problem of the batch, each
// submitted under o.QoS, and returns after all of them have completed —
// one barrier, not one per problem. All jobs are in flight together
// (subject to the queue depth), claimed by the engine's workers with
// inter-job parallelism.
//
// Batch elements are independent, and a failing element does not take
// the rest of the batch with it: any per-element submit error — an
// admission refusal (ErrAdmission), bad geometry, a plan failure —
// marks that element failed and the batch continues, and every
// submitted job is waited for, so the operand slices are quiescent when
// MultiplyBatch returns and each healthy element has executed. The
// first error, tagged with its element index, is returned.
//
// When ctx fires, in-flight jobs of the batch are cancelled (their
// remaining tasks skipped) and not-yet-submitted elements are
// short-circuited without resolving a plan or enqueueing a job, with
// the element's error reporting ctx.Err(). The barrier still holds:
// every accepted job is waited for before returning.
func (e *Engine) MultiplyBatch(ctx context.Context, batch []GEMM, o SubmitOpts) error {
	if ctx == nil {
		ctx = context.Background()
	}
	futs := make([]*Future, len(batch))
	var firstErr error
	for i := range batch {
		if err := ctx.Err(); err != nil {
			// Cancelled mid-batch: submitting the tail would plan and
			// enqueue jobs that only fail with the same error.
			if firstErr == nil {
				firstErr = fmt.Errorf("autogemm: batch element %d: %w", i, err)
			}
			break
		}
		f, err := e.Submit(ctx, batch[i], o)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("autogemm: batch element %d: %w", i, err)
			}
			continue // remaining elements are independent: keep submitting
		}
		futs[i] = f
	}
	for i, f := range futs {
		if f == nil {
			continue
		}
		if err := f.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("autogemm: batch element %d: %w", i, err)
		}
	}
	return firstErr
}
