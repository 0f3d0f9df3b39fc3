package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsAllTasks: every task of a job executes exactly once and
// the future completes without error.
func TestPoolRunsAllTasks(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	const n = 100
	var ran [n]int32
	fut, err := p.Submit(context.Background(), n, 0, QoS{}, func(w *Worker, i int) error {
		atomic.AddInt32(&ran[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i] != 1 {
			t.Fatalf("task %d ran %d times", i, ran[i])
		}
	}
	st := p.Stats()
	if st.JobsSubmitted != 1 || st.JobsCompleted != 1 {
		t.Errorf("stats = %+v, want 1 submitted / 1 completed", st)
	}
}

// TestSingleWorkerOrder: maxWorkers = 1 executes tasks strictly in
// ascending index order on one worker — the determinism contract the
// serial Run path relies on.
func TestSingleWorkerOrder(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	const n = 50
	var order []int
	var worker []int
	fut, err := p.Submit(context.Background(), n, 1, QoS{}, func(w *Worker, i int) error {
		order = append(order, i) // single participant: no race
		worker = append(worker, w.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task order[%d] = %d", i, got)
		}
	}
	for _, id := range worker {
		if id != worker[0] {
			t.Fatalf("tasks spread across workers %v with maxWorkers=1", worker)
		}
	}
	if s := fut.TasksStolen(); s != 0 {
		t.Errorf("TasksStolen = %d on a single-worker job", s)
	}
}

// TestCloseThenSubmit: submission after Close fails cleanly with
// ErrClosed, and Close is idempotent.
func TestCloseThenSubmit(t *testing.T) {
	p := New(2, 4)
	if _, err := p.Submit(context.Background(), 1, 0, QoS{}, func(*Worker, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), 1, 0, QoS{}, func(*Worker, int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseDrainsAcceptedJobs: jobs accepted before Close run to
// completion and their futures fire.
func TestCloseDrainsAcceptedJobs(t *testing.T) {
	p := New(2, 16)
	var ran int64
	futs := make([]*Future, 8)
	for i := range futs {
		f, err := p.Submit(context.Background(), 4, 0, QoS{}, func(*Worker, int) error {
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&ran, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("future %d after Close: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&ran); got != 8*4 {
		t.Fatalf("ran %d tasks, want %d", got, 8*4)
	}
}

// TestQueueSaturation: with a depth-1 queue and concurrent submitters,
// every future still completes and the in-flight high-water mark never
// exceeds the depth — Submit blocks instead of dropping or erroring.
func TestQueueSaturation(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	const jobs = 16
	var done int64
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := p.Submit(context.Background(), 3, 0, QoS{}, func(*Worker, int) error { return nil })
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Wait(); err != nil {
				t.Error(err)
				return
			}
			atomic.AddInt64(&done, 1)
		}()
	}
	wg.Wait()
	if done != jobs {
		t.Fatalf("%d of %d futures completed", done, jobs)
	}
	st := p.Stats()
	if st.JobsCompleted != jobs {
		t.Errorf("JobsCompleted = %d, want %d", st.JobsCompleted, jobs)
	}
	if st.QueueHighWater > 1 {
		t.Errorf("QueueHighWater = %d exceeds depth 1", st.QueueHighWater)
	}
}

// TestTaskErrorPropagates: the first task error reaches the future, the
// job still completes, and the pool keeps serving later jobs.
func TestTaskErrorPropagates(t *testing.T) {
	p := New(2, 4)
	defer p.Close()
	boom := errors.New("boom")
	fut, err := p.Submit(context.Background(), 20, 0, QoS{}, func(w *Worker, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	ok, err := p.Submit(context.Background(), 1, 0, QoS{}, func(*Worker, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Wait(); err != nil {
		t.Fatalf("job after failed job: %v", err)
	}
}

// TestZeroTaskJob completes immediately.
func TestZeroTaskJob(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	fut, err := p.Submit(context.Background(), 0, 0, QoS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerIDsDense: worker IDs observed by tasks stay inside
// [0, Workers()) — the contract per-worker scratch slots rely on.
func TestWorkerIDsDense(t *testing.T) {
	p := New(3, 8)
	defer p.Close()
	var bad int64
	fut, err := p.Submit(context.Background(), 64, 0, QoS{}, func(w *Worker, i int) error {
		if w.ID() < 0 || w.ID() >= p.Workers() {
			atomic.AddInt64(&bad, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker ID", bad)
	}
}

// TestConcurrentMixedJobs drives one pool from many goroutines with
// varying job sizes and participant caps (run under -race in CI).
func TestConcurrentMixedJobs(t *testing.T) {
	p := New(4, 4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				n := 1 + (g+r)%7
				maxW := 1 + r%4
				var sum int64
				f, err := p.Submit(context.Background(), n, maxW, QoS{}, func(w *Worker, i int) error {
					atomic.AddInt64(&sum, int64(i)+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := f.Wait(); err != nil {
					t.Error(err)
					return
				}
				if want := int64(n*(n+1)) / 2; sum != want {
					t.Errorf("job sum = %d, want %d", sum, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.JobsSubmitted != st.JobsCompleted || st.JobsSubmitted != 12*10 {
		t.Errorf("stats = %+v, want %d submitted == completed", st, 12*10)
	}
}
