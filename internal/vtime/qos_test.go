package vtime

import (
	"testing"

	"autogemm/internal/hw"
)

func mixedBatch(n int) []Job {
	batch := make([]Job, n)
	for i := range batch {
		class, weight := "batch", 1
		if i%3 == 2 {
			class, weight = "latency", 16
		}
		batch[i] = Job{
			ID:     int64(i + 1),
			Class:  class,
			Weight: weight,
			Costs:  uniform(5+i%7, 1000+float64(i*i%29)*17.3, float64(i%4)*4096),
		}
	}
	return batch
}

// TestBatchDeterministicReplay: repeated SimulateBatch runs over every
// chip are bit-identical under both policies — makespan, per-job
// outcomes, and per-worker accounting.
func TestBatchDeterministicReplay(t *testing.T) {
	batch := mixedBatch(13)
	for _, chip := range hw.All() {
		for _, pol := range []Policy{PolicyFIFO, PolicyWeighted} {
			a := SimulateBatch(chip, chip.Cores, batch, pol)
			b := SimulateBatch(chip, chip.Cores, batch, pol)
			if a.Makespan != b.Makespan || a.FloorBound != b.FloorBound {
				t.Errorf("%s/%s: makespan differs across runs: %v vs %v",
					chip.Name, pol, a.Makespan, b.Makespan)
			}
			for i := range a.Jobs {
				if a.Jobs[i] != b.Jobs[i] {
					t.Errorf("%s/%s: job %d result differs across runs: %+v vs %+v",
						chip.Name, pol, a.Jobs[i].ID, a.Jobs[i], b.Jobs[i])
				}
			}
			for i := range a.Busy {
				if a.Busy[i] != b.Busy[i] || a.Tasks[i] != b.Tasks[i] {
					t.Errorf("%s/%s: worker %d accounting differs across runs",
						chip.Name, pol, i)
				}
			}
		}
	}
}

// TestBatchWeightedStarvationFree: under sustained heavy high-weight
// load submitted ahead of it, a minimum-weight class's first claim is
// still bounded — weighted claiming interleaves it instead of parking
// it behind the entire high-weight backlog the way FIFO does. This is
// the deterministic starvation-freedom proof for the claiming policy.
func TestBatchWeightedStarvationFree(t *testing.T) {
	const heavy = 24
	var batch []Job
	for i := 0; i < heavy; i++ {
		batch = append(batch, Job{
			ID: int64(i + 1), Class: "hog", Weight: 64,
			Costs: uniform(6, 10_000, 0),
		})
	}
	starved := Job{ID: heavy + 1, Class: "meek", Weight: 1,
		Costs: uniform(2, 1000, 0)}
	batch = append(batch, starved)

	chip := hw.KP920()
	fifo := SimulateBatch(chip, 4, batch, PolicyFIFO)
	weighted := SimulateBatch(chip, 4, batch, PolicyWeighted)

	var fifoWait, weightedWait float64
	for i := range fifo.Jobs {
		if fifo.Jobs[i].ID == starved.ID {
			fifoWait = fifo.Jobs[i].QueueWait
			weightedWait = weighted.Jobs[i].QueueWait
		}
	}
	if fifoWait <= 0 {
		t.Fatalf("FIFO queue wait for the trailing job = %v, want > 0 (test premise)", fifoWait)
	}
	if weightedWait >= fifoWait {
		t.Fatalf("weighted wait %v not better than FIFO wait %v for min-weight class",
			weightedWait, fifoWait)
	}
	// Starvation-freedom bound: with stride scheduling a weight-1 class
	// waits at most ~(sum of weights / own weight) claim decisions, so
	// its first claim lands well inside the first few heavy jobs' span
	// rather than after the whole backlog.
	if weightedWait > fifoWait/4 {
		t.Errorf("weighted wait %v exceeds a quarter of the FIFO wait %v — weaker than the stride bound",
			weightedWait, fifoWait)
	}
}

// TestBatchSingleWorkerSerialSum: at W = 1 both policies produce a
// makespan equal to the serial sum of all task costs with no bandwidth
// floor. FIFO visits jobs in batch order so its sum is bit-exact;
// weighted interleaves classes, so its sum differs only by float
// addition reordering (compared within one ulp-scale epsilon).
func TestBatchSingleWorkerSerialSum(t *testing.T) {
	batch := mixedBatch(9)
	var want float64
	for _, j := range batch {
		for _, c := range j.Costs {
			want += c.Cycles
		}
	}
	for _, pol := range []Policy{PolicyFIFO, PolicyWeighted} {
		res := SimulateBatch(hw.KP920(), 1, batch, pol)
		if pol == PolicyFIFO && res.Makespan != want {
			t.Errorf("%s: W=1 makespan %v, want exact serial sum %v", pol, res.Makespan, want)
		}
		if d := res.Makespan - want; d > 1e-9*want || d < -1e-9*want {
			t.Errorf("%s: W=1 makespan %v not within reordering tolerance of %v", pol, res.Makespan, want)
		}
		if res.FloorBound {
			t.Errorf("%s: single worker must not apply the bandwidth floor", pol)
		}
		for _, jr := range res.Jobs {
			if jr.Finish <= jr.FirstClaim {
				t.Errorf("%s: job %d finish %v <= first claim %v", pol, jr.ID, jr.Finish, jr.FirstClaim)
			}
		}
	}
}

// TestBatchSingleClassPoliciesCoincide: with every job in one class
// weighted claiming degenerates to FIFO (one class queue, ID order), so
// the two policies must be bit-identical — the default-path identity
// the pool refactor relies on.
func TestBatchSingleClassPoliciesCoincide(t *testing.T) {
	batch := make([]Job, 11)
	for i := range batch {
		batch[i] = Job{
			ID:    int64(i + 1),
			Costs: uniform(4+i%5, 2000+float64(i)*311.5, float64(i%3)*8192),
		}
	}
	for _, w := range []int{1, 3, 8} {
		fifo := SimulateBatch(hw.KP920(), w, batch, PolicyFIFO)
		weighted := SimulateBatch(hw.KP920(), w, batch, PolicyWeighted)
		if fifo.Makespan != weighted.Makespan {
			t.Errorf("W=%d: single-class makespans differ: FIFO %v, weighted %v",
				w, fifo.Makespan, weighted.Makespan)
		}
		for i := range fifo.Jobs {
			if fifo.Jobs[i] != weighted.Jobs[i] {
				t.Errorf("W=%d: job %d differs single-class: %+v vs %+v",
					w, fifo.Jobs[i].ID, fifo.Jobs[i], weighted.Jobs[i])
			}
		}
	}
}

// TestBatchParticipantCap: a job's Max bounds how many workers join it;
// capped jobs take at least as long as uncapped ones.
func TestBatchParticipantCap(t *testing.T) {
	costs := uniform(16, 10_000, 0)
	capped := SimulateBatch(hw.KP920(), 8, []Job{{ID: 1, Max: 2, Costs: costs}}, PolicyFIFO)
	free := SimulateBatch(hw.KP920(), 8, []Job{{ID: 1, Costs: costs}}, PolicyFIFO)
	if capped.Makespan <= free.Makespan {
		t.Errorf("capped makespan %v should exceed uncapped %v", capped.Makespan, free.Makespan)
	}
	var joined int
	for _, n := range capped.Tasks {
		if n > 0 {
			joined++
		}
	}
	if joined > 2 {
		t.Errorf("%d workers joined a Max=2 job", joined)
	}
}

// TestBatchQuantile: nearest-rank quantile helper edge cases.
func TestBatchQuantile(t *testing.T) {
	if v := Quantile(nil, 0.99); v != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", v)
	}
	vals := []float64{5, 1, 4, 2, 3}
	if v := Quantile(vals, 0); v != 1 {
		t.Errorf("q0 = %v, want 1", v)
	}
	if v := Quantile(vals, 0.5); v != 3 {
		t.Errorf("q0.5 = %v, want 3", v)
	}
	if v := Quantile(vals, 1); v != 5 {
		t.Errorf("q1 = %v, want 5", v)
	}
	// Input must not be reordered by the helper.
	if vals[0] != 5 || vals[4] != 3 {
		t.Errorf("Quantile mutated its input: %v", vals)
	}
}
