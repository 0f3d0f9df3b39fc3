package vtime

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/sched"
)

func uniform(n int, cycles, bytes float64) []sched.TaskCost {
	costs := make([]sched.TaskCost, n)
	for i := range costs {
		costs[i] = sched.TaskCost{Cycles: cycles, Bytes: bytes}
	}
	return costs
}

// TestSingleWorkerIsSerialSum: one worker reproduces the in-order sum
// of the compute costs exactly — the analytic single-core contract
// (no penalties, no bandwidth floor).
func TestSingleWorkerIsSerialSum(t *testing.T) {
	costs := []sched.TaskCost{
		{Cycles: 100, Bytes: 1e12}, {Cycles: 31.5, Bytes: 0}, {Cycles: 7, Bytes: 5},
	}
	res := Simulate(hw.KP920(), 1, costs)
	if want := 100 + 31.5 + 7.0; res.Cycles != want {
		t.Errorf("Cycles=%v, want exact serial sum %v", res.Cycles, want)
	}
	if res.FloorBound {
		t.Error("single worker must not apply the bandwidth floor")
	}
	if res.Tasks[0] != 3 {
		t.Errorf("Tasks[0]=%d, want 3", res.Tasks[0])
	}
}

// TestDeterministicReplay: repeated simulations of the same inputs are
// bit-identical, including per-worker accounting.
func TestDeterministicReplay(t *testing.T) {
	costs := make([]sched.TaskCost, 97)
	for i := range costs {
		costs[i] = sched.TaskCost{
			Cycles: 1000 + float64(i*i%37)*13.7,
			Bytes:  float64(i%5) * 4096,
		}
	}
	for _, chip := range hw.All() {
		a := Simulate(chip, chip.Cores, costs)
		b := Simulate(chip, chip.Cores, costs)
		if a.Cycles != b.Cycles {
			t.Errorf("%s: cycles differ across runs: %v vs %v", chip.Name, a.Cycles, b.Cycles)
		}
		for i := range a.Busy {
			if a.Busy[i] != b.Busy[i] || a.Tasks[i] != b.Tasks[i] {
				t.Errorf("%s: worker %d accounting differs across runs", chip.Name, i)
			}
		}
	}
}

// TestUniformTasksBalance: uniform compute-bound tasks on a
// single-group chip split evenly — the makespan is the per-worker
// share times the sync penalty, and every worker runs the same number
// of tasks.
func TestUniformTasksBalance(t *testing.T) {
	chip := hw.KP920() // 8 cores, 1 group
	const n, w = 64, 8
	costs := uniform(n, 1000, 0)
	res := Simulate(chip, w, costs)
	top := hw.NewTopology(chip)
	want := float64(n/w) * 1000 * top.SyncPenalty(w)
	if math.Abs(res.Cycles-want) > 1e-6 {
		t.Errorf("Cycles=%v, want %v", res.Cycles, want)
	}
	for i, k := range res.Tasks {
		if k != n/w {
			t.Errorf("worker %d ran %d tasks, want %d", i, k, n/w)
		}
	}
}

// TestClaimOrderImbalance: one giant task first, then small ones — the
// replay's ascending-index claim discipline puts the giant task on
// worker 0 and the makespan tracks it, not the even split.
func TestClaimOrderImbalance(t *testing.T) {
	chip := hw.Graviton2()
	costs := append([]sched.TaskCost{{Cycles: 1e6}}, uniform(10, 10, 0)...)
	res := Simulate(chip, 4, costs)
	top := hw.NewTopology(chip)
	want := 1e6 * top.SyncPenalty(4)
	if math.Abs(res.Cycles-want) > 1e-6 {
		t.Errorf("Cycles=%v, want giant-task bound %v", res.Cycles, want)
	}
	if res.Tasks[0] != 1 {
		t.Errorf("worker 0 ran %d tasks, want only the giant one", res.Tasks[0])
	}
}

// TestBandwidthFloorBinds: tasks moving enormous traffic relative to
// their compute become bandwidth-bound: the result is the socket floor
// and FloorBound reports it.
func TestBandwidthFloorBinds(t *testing.T) {
	chip := hw.KP920()
	top := hw.NewTopology(chip)
	costs := uniform(16, 1, 1e9) // ~no compute, a GB of traffic each
	res := Simulate(chip, 8, costs)
	floor := 16e9 / top.SocketBandwidth()
	if !res.FloorBound {
		t.Fatalf("floor did not bind: cycles %v, floor %v", res.Cycles, floor)
	}
	if math.Abs(res.Cycles-floor) > floor*1e-9 {
		t.Errorf("Cycles=%v, want floor %v", res.Cycles, floor)
	}
	// Compute-bound work must not report the floor.
	if r := Simulate(chip, 8, uniform(16, 1e9, 8)); r.FloorBound {
		t.Error("compute-bound schedule reported FloorBound")
	}
}

// TestGroupContentionSlowsDraining: with per-group bandwidth shared by
// concurrent tasks, packing the same workers into one group drains
// slower in wall time than the floor suggests for few workers — and
// adding workers in the same group cannot beat the group's bandwidth.
func TestGroupContentionSlowsDraining(t *testing.T) {
	chip := hw.A64FX()
	top := hw.NewTopology(chip)
	// Memory-heavy tasks confined to one CMG (12 workers): the group's
	// bandwidth, a quarter of the socket, is the binding resource.
	costs := uniform(12, 1, 1e8)
	res := Simulate(chip, 12, costs)
	groupTime := 12e8 / top.GroupBandwidth()
	if math.Abs(res.Cycles-groupTime) > groupTime*1e-9 {
		t.Errorf("Cycles=%v, want group-bandwidth bound %v", res.Cycles, groupTime)
	}
	if res.FloorBound {
		t.Error("socket floor reported, but the group bound is higher")
	}
}

// TestMoreWorkersThanTasks: extra workers idle; they run zero tasks and
// accumulate zero busy cycles.
func TestMoreWorkersThanTasks(t *testing.T) {
	chip := hw.Graviton2()
	res := Simulate(chip, 16, uniform(3, 500, 0))
	var ran int
	for i := range res.Tasks {
		ran += res.Tasks[i]
		if res.Tasks[i] == 0 && res.Busy[i] != 0 {
			t.Errorf("idle worker %d has busy cycles %v", i, res.Busy[i])
		}
	}
	if ran != 3 {
		t.Errorf("tasks run %d, want 3", ran)
	}
}

// TestWorkerClamp: asking for more workers than the chip has cores
// clamps; zero or negative clamps to one.
func TestWorkerClamp(t *testing.T) {
	chip := hw.M2() // 4 cores
	if res := Simulate(chip, 100, uniform(8, 10, 0)); res.Workers != 4 {
		t.Errorf("Workers=%d, want clamp to 4", res.Workers)
	}
	if res := Simulate(chip, 0, uniform(8, 10, 0)); res.Workers != 1 {
		t.Errorf("Workers=%d, want clamp to 1", res.Workers)
	}
}

// TestCMGCollapseFromReplay: the A64FX efficiency curve collapses when
// the worker set spans CMGs — the paper's §V-E figure, out of the
// replay engine alone.
func TestCMGCollapseFromReplay(t *testing.T) {
	chip := hw.A64FX()
	costs := uniform(192, 10_000, 0)
	base := Simulate(chip, 1, costs).Cycles
	eff := func(w int) float64 { return Simulate(chip, w, costs).Efficiency(base) }
	e12, e24, e48 := eff(12), eff(24), eff(48)
	if e12 < 0.9 {
		t.Errorf("within-CMG efficiency %.3f, want near-linear", e12)
	}
	if e24 >= e12 || e48 >= e24 {
		t.Errorf("no collapse across CMGs: eff 12/24/48 = %.3f/%.3f/%.3f", e12, e24, e48)
	}
	if e48 > e12*0.7 {
		t.Errorf("48-core efficiency %.3f too close to within-CMG %.3f", e48, e12)
	}
	if sp := Simulate(chip, 48, costs).Spanned; sp != 4 {
		t.Errorf("Spanned=%d, want 4", sp)
	}
}

// TestEmptyCosts: no tasks, no cycles — and no panic.
func TestEmptyCosts(t *testing.T) {
	res := Simulate(hw.KP920(), 4, nil)
	if res.Cycles != 0 {
		t.Errorf("Cycles=%v, want 0", res.Cycles)
	}
}

// goldenCosts is a fixed mixed compute/traffic cost vector: heavy
// enough in bytes that some chips run at the socket bandwidth floor.
func goldenCosts() []sched.TaskCost {
	costs := make([]sched.TaskCost, 41)
	for i := range costs {
		costs[i] = sched.TaskCost{
			Cycles: 5000 + float64(i*i%23)*97.25,
			Bytes:  float64(i%6) * (1 << 20),
		}
	}
	return costs
}

// replayDigest hashes a result's exact per-worker accounting: the bits
// of every Busy entry and every Tasks count, in worker order.
func replayDigest(r Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range r.Busy {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
		h.Write(buf[:])
	}
	for _, n := range r.Tasks {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSimulateGolden pins Simulate's exact output bits — makespan,
// floor flag and per-worker Busy/Tasks — on every modelled chip at
// W = 1, 2 and all cores. The -sim-scaling curves are built from these
// replays, so any change to the replay engine must leave them
// bit-identical.
func TestSimulateGolden(t *testing.T) {
	golden := []struct {
		chip    string
		workers int
		cycles  uint64 // math.Float64bits(Result.Cycles)
		floor   bool
		digest  uint64 // replayDigest(Result)
	}{
		{"KP920", 1, 0x410d036000000000, false, 0x6d2f267686a4af7},
		{"KP920", 2, 0x4142e8ba2e8ba2ea, true, 0xce694e35c8cc93e6},
		{"KP920", 8, 0x4142e8ba2e8ba2e9, true, 0x62f4ddd860a27d8e},
		{"Graviton2", 1, 0x410d036000000000, false, 0x6d2f267686a4af7},
		{"Graviton2", 2, 0x41350d79435e50d8, true, 0xf1e2fb7658b07565},
		{"Graviton2", 16, 0x41350d79435e50d8, true, 0xf5e74d7c25645fcf},
		{"Altra", 1, 0x410d036000000000, false, 0x6d2f267686a4af7},
		{"Altra", 2, 0x4140000000000000, false, 0x988645c2f0d43031},
		{"Altra", 70, 0x413b333333333335, false, 0x5582d023aa68870d},
		{"M2", 1, 0x410d036000000000, false, 0x6d2f267686a4af7},
		{"M2", 2, 0x414beb851eb851ec, true, 0x14ebdcc6170f6e97},
		{"M2", 4, 0x414beb851eb851ed, true, 0xc5861814c7716f58},
		{"A64FX", 1, 0x410d036000000000, false, 0x6d2f267686a4af7},
		{"A64FX", 2, 0x412b800000000002, false, 0xd459f978e5b8cf62},
		{"A64FX", 48, 0x4110800000000000, false, 0x4d13933041fbe354},
	}
	costs := goldenCosts()
	var i int
	for _, chip := range hw.All() {
		for _, w := range []int{1, 2, chip.Cores} {
			if i >= len(golden) {
				t.Fatalf("no golden row for %s W=%d", chip.Name, w)
			}
			g := golden[i]
			i++
			if g.chip != chip.Name || g.workers != w {
				t.Fatalf("golden row %d is %s W=%d, replay is %s W=%d", i-1, g.chip, g.workers, chip.Name, w)
			}
			r := Simulate(chip, w, costs)
			if got := math.Float64bits(r.Cycles); got != g.cycles {
				t.Errorf("%s W=%d: Cycles bits %#x, want %#x", chip.Name, w, got, g.cycles)
			}
			if r.FloorBound != g.floor {
				t.Errorf("%s W=%d: FloorBound %v, want %v", chip.Name, w, r.FloorBound, g.floor)
			}
			if got := replayDigest(r); got != g.digest {
				t.Errorf("%s W=%d: Busy/Tasks digest %#x, want %#x", chip.Name, w, got, g.digest)
			}
		}
	}
	if i != len(golden) {
		t.Errorf("replayed %d configurations, golden has %d", i, len(golden))
	}
}
