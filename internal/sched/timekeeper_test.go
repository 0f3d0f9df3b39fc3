package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRecorderObservesEveryTask: with a Recorder installed, every task
// of a job is observed exactly once under its job ID, with the cost the
// task charged — regardless of which worker ran it.
func TestRecorderObservesEveryTask(t *testing.T) {
	p := New(4, 0)
	defer p.Close()
	rec := NewRecorder()
	p.SetTimekeeper(rec)

	const n = 37
	fut, err := p.Submit(context.Background(), n, 0, QoS{}, func(w *Worker, task int) error {
		w.Charge(TaskCost{Cycles: float64(task + 1), Bytes: float64(2 * (task + 1))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	costs := rec.Costs(fut.JobID())
	if len(costs) != n {
		t.Fatalf("recorded %d costs, want %d", len(costs), n)
	}
	for i, c := range costs {
		want := TaskCost{Cycles: float64(i + 1), Bytes: float64(2 * (i + 1))}
		if c != want {
			t.Errorf("task %d cost %+v, want %+v", i, c, want)
		}
	}
	total := rec.Total()
	if total.Cycles != float64(n*(n+1)/2) {
		t.Errorf("total cycles %v, want %v", total.Cycles, n*(n+1)/2)
	}
	if jobs := rec.Jobs(); len(jobs) != 1 || jobs[0] != fut.JobID() {
		t.Errorf("jobs %v, want [%d]", jobs, fut.JobID())
	}
}

// TestChargeResetsBetweenTasks: a task that charges nothing is observed
// with a zero cost even when the previous task on the same worker
// charged — the pending cost never leaks across tasks.
func TestChargeResetsBetweenTasks(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	rec := NewRecorder()
	p.SetTimekeeper(rec)

	fut, err := p.Submit(context.Background(), 4, 1, QoS{}, func(w *Worker, task int) error {
		if task%2 == 0 {
			w.Charge(TaskCost{Cycles: 100})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	costs := rec.Costs(fut.JobID())
	for i, c := range costs {
		want := TaskCost{}
		if i%2 == 0 {
			want = TaskCost{Cycles: 100}
		}
		if c != want {
			t.Errorf("task %d cost %+v, want %+v", i, c, want)
		}
	}
}

// TestPerWorkerStats: Stats reports per-worker tasks and busy cycles;
// the sums match the job totals exactly (float addition per worker is
// serial, so the per-worker figures are exact).
func TestPerWorkerStats(t *testing.T) {
	p := New(3, 0)
	defer p.Close()

	const n, perTask = 30, 7.0
	fut, err := p.Submit(context.Background(), n, 0, QoS{}, func(w *Worker, task int) error {
		w.Charge(TaskCost{Cycles: perTask})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if len(s.PerWorker) != 3 {
		t.Fatalf("PerWorker len %d, want 3", len(s.PerWorker))
	}
	var tasks int64
	var busy float64
	for _, ws := range s.PerWorker {
		tasks += ws.TasksRun
		busy += ws.BusyCycles
		if ws.TasksRun < 0 || ws.BusyCycles != perTask*float64(ws.TasksRun) {
			t.Errorf("worker stats inconsistent: %+v", ws)
		}
	}
	if tasks != n {
		t.Errorf("tasks across workers %d, want %d", tasks, n)
	}
	if busy != perTask*n {
		t.Errorf("busy across workers %v, want %v", busy, perTask*n)
	}
}

// TestSkippedClaimsNotObserved: after a task fails, the job's remaining
// claims are skipped and must not reach the Timekeeper — they ran no
// work. TasksRun likewise counts only executed tasks.
func TestSkippedClaimsNotObserved(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	rec := NewRecorder()
	p.SetTimekeeper(rec)

	boom := errors.New("boom")
	var ran int64
	fut, err := p.Submit(context.Background(), 10, 1, QoS{}, func(w *Worker, task int) error {
		atomic.AddInt64(&ran, 1)
		w.Charge(TaskCost{Cycles: 1})
		if task == 2 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	costs := rec.Costs(fut.JobID())
	if len(costs) != int(ran) {
		t.Errorf("observed %d tasks, %d ran", len(costs), ran)
	}
	var tasks int64
	for _, ws := range p.Stats().PerWorker {
		tasks += ws.TasksRun
	}
	if tasks != ran {
		t.Errorf("TasksRun %d, want %d", tasks, ran)
	}
}

// TestNoTimekeeperStillCounts: without a hook the per-worker counters
// still track tasks (and zero busy when nothing charges).
func TestNoTimekeeperStillCounts(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	fut, err := p.Submit(context.Background(), 8, 0, QoS{}, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, ws := range p.Stats().PerWorker {
		tasks += ws.TasksRun
		if ws.BusyCycles != 0 {
			t.Errorf("uncharged busy cycles %v", ws.BusyCycles)
		}
	}
	if tasks != 8 {
		t.Errorf("TasksRun %d, want 8", tasks)
	}
}

// TestJobIDsDistinct: every accepted job gets a distinct ID, so a
// Recorder shared across jobs never conflates their cost vectors.
func TestJobIDsDistinct(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		fut, err := p.Submit(context.Background(), 1, 0, QoS{}, func(w *Worker, task int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		id := fut.JobID()
		if seen[id] {
			t.Errorf("job ID %d reused", id)
		}
		seen[id] = true
	}
}
