// Command perfbench is the repository benchmark. It drives the public
// entry points of the autogemm module on three seeded workloads and
// prints one JSON result line:
//
//	resnet50         closed loop, one caller: the 20 Table V layers in
//	                 order as one inference pass, repeated, through
//	                 Engine.Multiply on plans warmed during set-up.
//	small-irregular  closed loop, one caller: Engine.Multiply on a
//	                 seeded stream of small and skinny shapes, with one
//	                 call every 100 ms on a shape not seen before.
//	serve-mixed      open loop over loopback through serve.Server's
//	                 handler: Poisson arrivals of two tenants at a light
//	                 and then a heavy fixed rate.
//
// BENCHMARK.json declares small-irregular and serve-mixed; resnet50 is
// kept for hand measurements (metrics.json says why it is left out).
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload untraced and then with spans recorded around the calls
// into each layer, and reports the per-layer metrics (traced.go).
// metrics.json says why each workload and metric exists and which
// end-to-end metric each layer metric should move. Every result is
// checked (refgemm within refgemm.Tolerance, served bits against a
// direct Engine.Multiply reference); any failed or wrong operation
// makes the run exit 1 after printing its result.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash _perfbench/run.sh --workload small-irregular --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// chipName is the modelled chip every workload plans for.
const chipName = "KP920"

// setupReps is how many times a run builds its engine (and server) and
// warms its plans, both before its timed part and after it; setup_s is
// the median of all of them, so one slow construction does not move it.
const setupReps = 5

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string // where the traced run writes its spans ("" = nowhere)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its operation tally, and the human
// readable lines printed to stderr beside the JSON result.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op tallies one operation: ok is false when it errored, was refused or
// returned a wrong result.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(cfg config, rep *report) error
	traced func(cfg config, rep *report) error
}{
	"resnet50":        {runResNet, traceResNet},
	"small-irregular": {runSmall, traceSmall},
	"serve-mixed":     {runServe, traceServe},
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs one invocation and returns the process exit code: 0
// when every operation succeeded and was correct, 1 when any failed, 2
// on bad usage or a set-up error (no result is printed then).
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "resnet50, small-irregular or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed for shapes, operands and arrival times")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload resnet50|small-irregular|serve-mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	rep := newReport()
	run := w.run
	if cfg.trace {
		run = w.traced
	}
	start, host := time.Now(), readHostCPU()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if !cfg.trace {
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		if rep.attempted > 0 {
			rep.set("ok_share", "ratio", 1-float64(rep.failed)/float64(rep.attempted))
		}
	}
	if end := readHostCPU(); end.ok && host.ok && end.busy > host.busy {
		rep.note("the host stole %.2f%% of the machine's busy CPU time during the run",
			100*float64(end.steal-host.steal)/float64(end.busy-host.busy))
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "%s: %s\n", cfg.workload, n)
	}
	fmt.Fprintf(stderr, "%s: %d operations, %d failed, %.1fs wall\n",
		cfg.workload, rep.attempted, rep.failed, time.Since(start).Seconds())
	res := rep.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
