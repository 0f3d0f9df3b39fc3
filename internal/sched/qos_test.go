package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQoSDefaultClassFIFO pins the default-path equivalence: with only
// the default class active, a single worker claims jobs strictly in
// submission order — exactly the pre-QoS FIFO.
func TestQoSDefaultClassFIFO(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	// Park the worker so every job queues before any is claimed.
	blocker, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for i := 0; i < 8; i++ {
		i := i
		f, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("default class not FIFO: claim order %v", order)
		}
	}
}

// TestQoSClassDepthAdmission proves per-class admission control: a
// class at its depth bound sheds immediately with ErrAdmission while
// other classes keep accepting.
func TestQoSClassDepthAdmission(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	p.ConfigureClass("bounded", ClassConfig{Weight: 1, Depth: 2})

	gate := make(chan struct{})
	defer close(gate)
	park := func(class string) (*Future, error) {
		return p.Submit(context.Background(), 1, 1, QoS{Class: class}, func(w *Worker, task int) error {
			<-gate
			return nil
		})
	}
	// Fill the class to its depth (first job may be claimed and parked;
	// it still counts as in flight).
	if _, err := park("bounded"); err != nil {
		t.Fatal(err)
	}
	if _, err := park("bounded"); err != nil {
		t.Fatal(err)
	}
	if _, err := park("bounded"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third bounded submission: got %v, want ErrAdmission", err)
	}
	// Other classes are unaffected by the bounded class's shed.
	if _, err := park("other"); err != nil {
		t.Fatalf("other class refused: %v", err)
	}
	s := p.Stats()
	var bounded *ClassStats
	for i := range s.Classes {
		if s.Classes[i].Class == "bounded" {
			bounded = &s.Classes[i]
		}
	}
	if bounded == nil || bounded.Rejected != 1 || bounded.Submitted != 2 {
		t.Fatalf("bounded class stats = %+v, want Submitted 2 Rejected 1", bounded)
	}
}

// TestQoSExpiredDeadline proves both deadline paths: already expired at
// submit → ErrAdmission without a job; expiring while queued → the
// future fails with context.DeadlineExceeded before any task runs.
// vet:allow walltime (QoS deadlines are real wall-clock deadlines; the
// test constructs expired ones)
func TestQoSExpiredDeadline(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	_, err := p.Submit(context.Background(), 1, 1,
		QoS{Deadline: time.Now().Add(-time.Second)},
		func(w *Worker, task int) error { return nil })
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("expired deadline: got %v, want ErrAdmission", err)
	}

	// Park the worker, queue a job with a short deadline behind it. The
	// deadline expires while the job is still parked in its class
	// queue; once a worker reaches it, the claim drains through the
	// context fast-path without running the task.
	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	f, err := p.Submit(context.Background(), 1, 1,
		QoS{Deadline: time.Now().Add(20 * time.Millisecond)},
		func(w *Worker, task int) error {
			ran.Store(true)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let the deadline expire while parked
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline job: got %v, want DeadlineExceeded", err)
	}
	if ran.Load() {
		t.Fatal("task ran despite expired deadline")
	}
}

// TestQoSWeightedShare proves weighted claiming shares join decisions
// by weight and never starves the minimum-weight class: with a 4:1
// weight split and one worker draining a backlog, the low class's jobs
// interleave with the high class's instead of waiting for it to drain.
func TestQoSWeightedShare(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	p.ConfigureClass("high", ClassConfig{Weight: 4})
	p.ConfigureClass("low", ClassConfig{Weight: 1})

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	enqueue := func(class string, n int) {
		for i := 0; i < n; i++ {
			f, err := p.Submit(context.Background(), 1, 1, QoS{Class: class}, func(w *Worker, task int) error {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
	}
	enqueue("high", 12)
	enqueue("low", 3)
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// All 3 low jobs must be claimed before the high backlog is done:
	// the last "low" must not sit at the very end of the order.
	lastLow := -1
	for i, c := range order {
		if c == "low" {
			lastLow = i
		}
	}
	if lastLow < 0 || lastLow == len(order)-1 {
		t.Fatalf("low class starved until the end: order %v", order)
	}
	// The first low claim must happen within the first weight-ratio
	// window (4:1 → by the 6th decision), not after the high drain.
	firstLow := -1
	for i, c := range order {
		if c == "low" {
			firstLow = i
			break
		}
	}
	if firstLow > 6 {
		t.Fatalf("low class first served at position %d of %v", firstLow, order)
	}
}

// TestQoSWeightedDeterministic pins the deterministic tie-break: two
// runs over an identical queue state claim in the identical order.
func TestQoSWeightedDeterministic(t *testing.T) {
	run := func() []string {
		p := New(1, 0)
		defer p.Close()
		p.ConfigureClass("a", ClassConfig{Weight: 3})
		p.ConfigureClass("b", ClassConfig{Weight: 2})
		p.ConfigureClass("c", ClassConfig{Weight: 1})

		var mu sync.Mutex
		var order []string
		gate := make(chan struct{})
		blocker, _ := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
			<-gate
			return nil
		})
		var futs []*Future
		for i := 0; i < 5; i++ {
			for _, class := range []string{"a", "b", "c"} {
				class := class
				f, err := p.Submit(context.Background(), 1, 1, QoS{Class: class}, func(w *Worker, task int) error {
					mu.Lock()
					order = append(order, class)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
		}
		close(gate)
		blocker.Wait()
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: %d claims vs %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d claim order %v != %v", i, got, first)
				}
			}
		}
	}
}

// TestQoSQueueWaitCounters checks the claim-decision queue-wait
// accounting: a job claimed immediately waits 0; jobs queued behind a
// parked worker accumulate positive waits.
func TestQoSQueueWaitCounters(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for i := 0; i < 4; i++ {
		f, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(gate)
	blocker.Wait()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if len(s.Classes) != 1 || s.Classes[0].Class != DefaultClass {
		t.Fatalf("classes = %+v, want only %q", s.Classes, DefaultClass)
	}
	cs := s.Classes[0]
	if cs.QueueWaitJobs != 5 {
		t.Fatalf("QueueWaitJobs = %d, want 5", cs.QueueWaitJobs)
	}
	// Jobs 2..5 each waited at least the claims that served their
	// predecessors; the exact sum is deterministic with one worker:
	// job i (0-based among the queued) waits i+1 decisions... the
	// blocker is claim 1, so queued job k is claim k+2 having been
	// accepted after claim... just require positive cumulative wait.
	if cs.QueueWaitClaims <= 0 {
		t.Fatalf("QueueWaitClaims = %d, want > 0", cs.QueueWaitClaims)
	}
}

// TestQoSJobObserver checks the Recorder's JobObserver wiring: every
// accepted job's class/weight/tasks/cap identity is on file.
func TestQoSJobObserver(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	rec := NewRecorder()
	p.SetTimekeeper(rec)
	p.ConfigureClass("x", ClassConfig{Weight: 7})

	f, err := p.Submit(context.Background(), 3, 2, QoS{Class: "x"}, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	meta, ok := rec.Meta(f.JobID())
	if !ok {
		t.Fatalf("job %d has no recorded meta", f.JobID())
	}
	want := JobMeta{Class: "x", Weight: 7, Tasks: 3, MaxWorkers: 2}
	if meta != want {
		t.Fatalf("meta = %+v, want %+v", meta, want)
	}
}

// TestQoSBackgroundYields checks the built-in background class: with a
// default-class backlog present, background jobs do not run ahead of
// the entire foreground queue (weight 1 vs 16).
func TestQoSBackgroundYields(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	add := func(class string, n int) {
		for i := 0; i < n; i++ {
			f, err := p.Submit(context.Background(), 1, 1, QoS{Class: class}, func(w *Worker, task int) error {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
	}
	add(BackgroundClass, 4)
	add(DefaultClass, 8)
	close(gate)
	blocker.Wait()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Background was submitted first (lower IDs) but must not hold the
	// first 4 slots: the 16x default weight pulls foreground ahead.
	fgBeforeLastBg := 0
	lastBg := -1
	for i, c := range order {
		if c == BackgroundClass {
			lastBg = i
		}
	}
	for i := 0; i < lastBg; i++ {
		if order[i] == DefaultClass {
			fgBeforeLastBg++
		}
	}
	if fgBeforeLastBg == 0 {
		t.Fatalf("background ran ahead of all foreground work: order %v", order)
	}
}

// TestQoSTrySubmitQoS checks the non-blocking QoS intake path used by
// the background planner.
func TestQoSTrySubmitQoS(t *testing.T) {
	p := New(1, 1) // depth 1: the second in-flight job trips ErrBusy
	defer p.Close()

	gate := make(chan struct{})
	f1, err := p.TrySubmit(1, 1, QoS{Class: BackgroundClass}, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrySubmit(1, 1, QoS{Class: BackgroundClass}, func(w *Worker, task int) error { return nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("at depth: got %v, want ErrBusy", err)
	}
	close(gate)
	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigureClassWeightOnlyKeepsDepth is the regression test for the
// depth-clobber bug a serving control plane tripped: retuning a bounded
// class's weight with a zero Depth used to silently reset the class to
// unbounded, dropping its admission control mid-load. The contract now
// mirrors Weight: 0 keeps the current bound, negative explicitly clears
// it.
func TestConfigureClassWeightOnlyKeepsDepth(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	p.ConfigureClass("tenant", ClassConfig{Weight: 16, Depth: 2})

	gate := make(chan struct{})
	defer close(gate)
	park := func() (*Future, error) {
		return p.Submit(context.Background(), 1, 1, QoS{Class: "tenant"}, func(w *Worker, task int) error {
			<-gate
			return nil
		})
	}
	// Fill the class to its depth.
	for i := 0; i < 2; i++ {
		if _, err := park(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := park(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("at depth before retune: got %v, want ErrAdmission", err)
	}

	// Weight-only retune: Depth 0 must keep the existing bound.
	p.ConfigureClass("tenant", ClassConfig{Weight: 4})
	if cs, ok := p.Class("tenant"); !ok || cs.Depth != 2 || cs.Weight != 4 {
		t.Fatalf("after weight-only retune: got %+v, want Weight 4 Depth 2", cs)
	}
	if _, err := park(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("at depth after weight-only retune: got %v, want ErrAdmission (depth bound clobbered)", err)
	}

	// Negative Depth explicitly clears the bound.
	p.ConfigureClass("tenant", ClassConfig{Depth: -1})
	if cs, ok := p.Class("tenant"); !ok || cs.Depth != 0 || cs.Weight != 4 {
		t.Fatalf("after explicit clear: got %+v, want Weight 4 Depth 0", cs)
	}
	if _, err := park(); err != nil {
		t.Fatalf("after clearing the bound: %v", err)
	}
}

// TestPoolClassSnapshot checks the single-class lookup: a configured
// class is found (with "" resolving to DefaultClass after first use)
// and an unknown class reports absence instead of a zero snapshot.
func TestPoolClassSnapshot(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	if _, ok := p.Class("ghost"); ok {
		t.Fatal("unknown class reported present")
	}
	p.ConfigureClass("tenant", ClassConfig{Weight: 8, Depth: 3})
	cs, ok := p.Class("tenant")
	if !ok || cs.Class != "tenant" || cs.Weight != 8 || cs.Depth != 3 {
		t.Fatalf("Class(tenant) = %+v, %v", cs, ok)
	}
	f, err := p.Submit(context.Background(), 1, 1, QoS{}, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if cs, ok := p.Class(""); !ok || cs.Class != DefaultClass || cs.Submitted != 1 {
		t.Fatalf("Class(\"\") = %+v, %v, want DefaultClass with 1 submitted", cs, ok)
	}
}

// TestClassListOrderedInsertion checks that classes created in
// arbitrary order land in their sorted position — the invariant the
// deterministic arbitration scan and sorted Stats.Classes rely on now
// that creation inserts instead of re-sorting.
func TestClassListOrderedInsertion(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		p.ConfigureClass(name, ClassConfig{Weight: 1})
	}
	classes := p.Stats().Classes
	for i := 1; i < len(classes); i++ {
		if classes[i-1].Class >= classes[i].Class {
			t.Fatalf("class list not sorted: %q before %q", classes[i-1].Class, classes[i].Class)
		}
	}
}

// BenchmarkClassCreation guards the ordered-insertion path: creating a
// class among many existing ones must stay O(list) for the shift, not
// O(list log list) for a full re-sort under pool.mu.
func BenchmarkClassCreation(b *testing.B) {
	p := New(1, 0)
	defer p.Close()
	for i := 0; i < 256; i++ {
		p.ConfigureClass(fmt.Sprintf("warm-%04d", i), ClassConfig{Weight: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConfigureClass(fmt.Sprintf("bench-%08d", i), ClassConfig{Weight: 1})
	}
}
