package autogemm

import (
	"context"
	"errors"
	"testing"
	"time"

	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// TestSubmitOptsBitIdenticalToMultiply: tagging work with a class,
// weight and batch options changes scheduling only — every output bit
// matches a serial Multiply of the same shape.
func TestSubmitOptsBitIdenticalToMultiply(t *testing.T) {
	shapes := workload.ResNet50()[15:] // L16..L20, the fast tail
	e, err := New("KP920", WithWorkers(4), WithClass("latency", 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i, s := range shapes {
		a := make([]float32, s.M*s.K)
		b := make([]float32, s.K*s.N)
		refgemm.Fill(a, s.M, s.K, s.K, uint64(2*i+1))
		refgemm.Fill(b, s.K, s.N, s.N, uint64(2*i+2))
		want := make([]float32, s.M*s.N)
		if err := e.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
			t.Fatalf("%s serial: %v", s.Name, err)
		}

		got := make([]float32, s.M*s.N)
		f, err := e.Submit(context.Background(), GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: got},
			SubmitOpts{QoS: QoS{Class: "latency"}})
		if err != nil {
			t.Fatalf("%s SubmitOpts: %v", s.Name, err)
		}
		if err := f.Wait(); err != nil {
			t.Fatalf("%s wait: %v", s.Name, err)
		}
		diffBits(t, s.Name+" SubmitOpts", got, want)

		batch := []GEMM{{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N)}}
		if err := e.MultiplyBatch(context.Background(), batch, SubmitOpts{QoS: QoS{Class: "latency", Weight: 8}}); err != nil {
			t.Fatalf("%s MultiplyBatch: %v", s.Name, err)
		}
		diffBits(t, s.Name+" MultiplyBatch", batch[0].C, want)
	}
}

// TestQoSAdmissionThroughAPI: a WithClass depth bound and an expired
// deadline both surface ErrAdmission through the public entry points.
func TestQoSAdmissionThroughAPI(t *testing.T) {
	s := workload.ResNet50()[15]
	e, err := New("KP920", WithWorkers(1), WithClass("tight", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 1)
	refgemm.Fill(b, s.K, s.N, s.N, 2)
	g := func() GEMM {
		return GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N)}
	}

	// Expired deadline: refused at admission before any task runs.
	_, err = e.Submit(context.Background(), g(), SubmitOpts{QoS: QoS{Deadline: time.Now().Add(-time.Second)}})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("expired deadline: got %v, want ErrAdmission", err)
	}

	// Depth bound: park the only worker on a big job, then overfill the
	// depth-1 class with queued jobs — the second must be shed.
	big := workload.ResNet50()[0]
	ba := make([]float32, big.M*big.K)
	bb := make([]float32, big.K*big.N)
	refgemm.Fill(ba, big.M, big.K, big.K, 3)
	refgemm.Fill(bb, big.K, big.N, big.N, 4)
	blocker, err := e.Submit(context.Background(), GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := e.Submit(context.Background(), g(), SubmitOpts{QoS: QoS{Class: "tight"}})
	if err != nil {
		t.Fatalf("first tight job: %v", err)
	}
	_, err = e.Submit(context.Background(), g(), SubmitOpts{QoS: QoS{Class: "tight"}})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-depth submission: got %v, want ErrAdmission", err)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}

	// The shed shows up in the public per-class stats.
	var tight SchedClassStats
	for _, cs := range e.PlanCacheStats().SchedClasses {
		if cs.Class == "tight" {
			tight = cs
		}
	}
	if tight.Class != "tight" {
		t.Fatal("class 'tight' missing from PlanCacheStats.SchedClasses")
	}
	if tight.Rejected != 1 || tight.Submitted != 1 || tight.Completed != 1 || tight.Depth != 1 {
		t.Fatalf("tight class stats = %+v, want submitted=completed=rejected=1 depth=1", tight)
	}

	// An inadmissible batch element reports ErrAdmission tagged with its
	// index, per the MultiplyBatch contract.
	err = e.MultiplyBatch(context.Background(), []GEMM{g()}, SubmitOpts{QoS: QoS{Deadline: time.Now().Add(-time.Hour)}})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("batch with expired deadline: got %v, want ErrAdmission", err)
	}
}

// TestWithDefaultClassPlumbing: WithDefaultClass reroutes the implicit
// entry points' jobs into the named class, visible in the per-class
// counters, and outputs stay bit-identical to the default engine.
func TestWithDefaultClassPlumbing(t *testing.T) {
	s := workload.ResNet50()[16]
	e, err := New("KP920", WithWorkers(2), WithDefaultClass("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 7)
	refgemm.Fill(b, s.K, s.N, s.N, 8)
	got := make([]float32, s.M*s.N)
	if err := e.Multiply(got, a, b, s.M, s.N, s.K); err != nil {
		t.Fatal(err)
	}

	ref, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]float32, s.M*s.N)
	if err := ref.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
		t.Fatal(err)
	}
	diffBits(t, s.Name+" default-class reroute", got, want)

	found := false
	for _, cs := range e.PlanCacheStats().SchedClasses {
		if cs.Class == "tenant-a" {
			found = true
			if cs.Submitted < 1 || cs.Completed < 1 {
				t.Fatalf("tenant-a counters = %+v, want >= 1 submitted/completed", cs)
			}
		}
		if cs.Class == DefaultClass && cs.Submitted != 0 {
			t.Fatalf("default class saw %d jobs despite WithDefaultClass", cs.Submitted)
		}
	}
	if !found {
		t.Fatal("class 'tenant-a' missing from PlanCacheStats.SchedClasses")
	}
}

// TestConfigureClassRuntime: ConfigureClass after New creates the class
// with the requested weight/depth, reported back in SchedClasses.
func TestConfigureClassRuntime(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.ConfigureClass("burst", 4, 9)

	s := workload.ResNet50()[17]
	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 5)
	refgemm.Fill(b, s.K, s.N, s.N, 6)
	f, err := e.Submit(context.Background(), GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b,
		C: make([]float32, s.M*s.N)}, SubmitOpts{QoS: QoS{Class: "burst"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range e.PlanCacheStats().SchedClasses {
		if cs.Class == "burst" {
			if cs.Weight != 4 || cs.Depth != 9 || cs.Completed != 1 {
				t.Fatalf("burst class = %+v, want weight=4 depth=9 completed=1", cs)
			}
			return
		}
	}
	t.Fatal("class 'burst' missing from PlanCacheStats.SchedClasses")
}
