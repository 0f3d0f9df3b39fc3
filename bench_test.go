package autogemm_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V). Each BenchmarkTableX/BenchmarkFigX target regenerates
// the corresponding experiment through internal/experiments and reports,
// alongside Go's timing of the harness itself, custom metrics that carry
// the experiment's headline numbers (simulated GFLOPS, efficiencies,
// speedups) so `go test -bench=.` reproduces the paper's result set.
// Absolute wall-clock numbers measure this host running the simulator;
// the simulated-cycle metrics are the paper-comparable quantities.

import (
	"context"
	"strconv"
	"testing"

	"autogemm"
	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/experiments"
	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// run regenerates one experiment per iteration.
func runExperiment(b *testing.B, id string) experiments.Table {
	b.Helper()
	runner, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tbl experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = runner()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func cell(b *testing.B, tbl experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
	}
	return v
}

// BenchmarkTableI regenerates the library-efficiency summary.
func BenchmarkTableI(b *testing.B) {
	tbl := runExperiment(b, "table1")
	for _, row := range tbl.Rows {
		if row[0] == "autoGEMM" {
			if v, err := strconv.ParseFloat(row[1], 64); err == nil {
				b.ReportMetric(v, "autoGEMM-small-eff%")
			}
			if v, err := strconv.ParseFloat(row[2], 64); err == nil {
				b.ReportMetric(v, "autoGEMM-irregular-eff%")
			}
		}
	}
}

// BenchmarkTableII regenerates the tile arithmetic-intensity table.
func BenchmarkTableII(b *testing.B) {
	tbl := runExperiment(b, "table2")
	b.ReportMetric(float64(len(tbl.Rows)), "mr-rows")
}

// BenchmarkFig2 regenerates the AI-vs-k_c trend.
func BenchmarkFig2(b *testing.B) {
	tbl := runExperiment(b, "fig2")
	last := tbl.Rows[len(tbl.Rows)-1]
	if v, err := strconv.ParseFloat(last[4], 64); err == nil {
		b.ReportMetric(v, "AI-5x16-kc256")
	}
}

// BenchmarkFig3 regenerates the pipeline timing walk-through.
func BenchmarkFig3(b *testing.B) {
	tbl := runExperiment(b, "fig3")
	b.ReportMetric(cell(b, tbl, 0, 4), "5x16-kc16-sim-cycles")
}

// BenchmarkFig4 regenerates the fusion boundary comparison.
func BenchmarkFig4(b *testing.B) {
	tbl := runExperiment(b, "fig4")
	b.ReportMetric(cell(b, tbl, 0, 3), "c_to_c-saving%")
}

// BenchmarkFig5 regenerates the micro-tiling strategy example block.
func BenchmarkFig5(b *testing.B) {
	tbl := runExperiment(b, "fig5")
	for _, row := range tbl.Rows {
		if row[0] == "dmt" {
			if v, err := strconv.ParseFloat(row[1], 64); err == nil {
				b.ReportMetric(v, "dmt-tiles")
			}
		}
	}
}

// BenchmarkFig6 regenerates the step-wise optimization sweep.
func BenchmarkFig6(b *testing.B) {
	tbl := runExperiment(b, "fig6")
	// First row is KP920 64x64x4: report the fusion gain at K=4.
	b.ReportMetric(cell(b, tbl, 0, 5), "KP920-K4-fuse-gain%")
}

// BenchmarkFig7 regenerates the tiling strategy comparison.
func BenchmarkFig7(b *testing.B) {
	tbl := runExperiment(b, "fig7")
	b.ReportMetric(cell(b, tbl, 0, 4), "KP920-80x32-dmt-GFLOPS")
}

// BenchmarkFig8 regenerates the small-GEMM sweep over all chips and
// libraries (the heaviest experiment).
func BenchmarkFig8(b *testing.B) {
	tbl := runExperiment(b, "fig8")
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkFig9 regenerates the ResNet-50 layer evaluation.
func BenchmarkFig9(b *testing.B) {
	tbl := runExperiment(b, "fig9")
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkFig10 regenerates the roofline placements.
func BenchmarkFig10(b *testing.B) {
	tbl := runExperiment(b, "fig10")
	b.ReportMetric(float64(len(tbl.Rows)), "points")
}

// BenchmarkFig11 regenerates the strong-scaling curves and reports the
// full-socket parallel efficiencies the paper quotes.
func BenchmarkFig11(b *testing.B) {
	tbl := runExperiment(b, "fig11")
	for i, row := range tbl.Rows {
		isLast := i == len(tbl.Rows)-1 || tbl.Rows[i+1][0] != row[0]
		if isLast {
			if v, err := strconv.ParseFloat(row[4], 64); err == nil {
				b.ReportMetric(v, row[0]+"-par-eff%")
			}
		}
	}
}

// BenchmarkFig12 regenerates the end-to-end DNN evaluation and reports
// the ResNet50 speedup on KP920 (paper: 1.30x).
func BenchmarkFig12(b *testing.B) {
	tbl := runExperiment(b, "fig12")
	for _, row := range tbl.Rows {
		if row[0] == "KP920" && row[1] == "ResNet50" && row[2] == "autoGEMM" {
			if v, err := strconv.ParseFloat(row[6], 64); err == nil {
				b.ReportMetric(v, "KP920-ResNet50-speedup")
			}
		}
	}
}

// BenchmarkMultiply measures the host-side cost of the functional
// execution path (interpreting generated kernels) for a small GEMM.
func BenchmarkMultiply(b *testing.B) {
	eng, err := autogemm.New("KP920")
	if err != nil {
		b.Fatal(err)
	}
	const m, n, k = 32, 32, 32
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(bb, k, n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multiply(c, a, bb, m, n, k); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
}

// BenchmarkEstimate measures one performance projection (the unit of
// work inside every experiment).
func BenchmarkEstimate(b *testing.B) {
	eng, err := autogemm.New("Graviton2")
	if err != nil {
		b.Fatal(err)
	}
	var last autogemm.Perf
	for i := 0; i < b.N; i++ {
		last, err = eng.Estimate(64, 64, 64, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.GFLOPS, "simulated-GFLOPS")
}

// BenchmarkKernelGeneration measures micro-kernel generation throughput.
func BenchmarkKernelGeneration(b *testing.B) {
	eng, err := autogemm.New("KP920")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := eng.Kernel(5, 16, 64, true, autogemm.KernelAsm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProviderEstimates measures the per-library projection cost on
// the Table I irregular shape.
func BenchmarkProviderEstimates(b *testing.B) {
	chip := hw.KP920()
	for _, p := range baselines.All() {
		if !p.Supports(chip, 256, 3136, 64) {
			continue
		}
		b.Run(p.Name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				est, err := p.Estimate(chip, 256, 3136, 64)
				if err != nil {
					b.Fatal(err)
				}
				eff = est.Efficiency
			}
			b.ReportMetric(eff*100, "sim-eff%")
		})
	}
}

// BenchmarkTableIII regenerates the model-parameter inventory.
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTableIV regenerates the hardware-specification table.
func BenchmarkTableIV(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTableV regenerates the ResNet-50 shape table with its im2col
// provenance.
func BenchmarkTableV(b *testing.B) {
	tbl := runExperiment(b, "table5")
	b.ReportMetric(float64(len(tbl.Rows)), "layers")
}

// BenchmarkAblationWindow regenerates the rotation-vs-OoO ablation and
// reports the no-rename rotation gain.
func BenchmarkAblationWindow(b *testing.B) {
	tbl := runExperiment(b, "ablation-window")
	b.ReportMetric(cell(b, tbl, 0, 4), "norename-rotation-gain%")
}

// BenchmarkAblationPrefetch regenerates the cold-cache prefetch ablation.
func BenchmarkAblationPrefetch(b *testing.B) {
	tbl := runExperiment(b, "ablation-prefetch")
	b.ReportMetric(cell(b, tbl, 0, 3), "KP920-prefetch-gain%")
}

// BenchmarkAblationResidency regenerates the residency-cliff ablation.
func BenchmarkAblationResidency(b *testing.B) {
	tbl := runExperiment(b, "ablation-residency")
	b.ReportMetric(cell(b, tbl, 0, 3), "L1-eff%")
	b.ReportMetric(cell(b, tbl, 1, 3), "L2-eff%")
}

// BenchmarkAblationDMT regenerates the tile-candidate ablation.
func BenchmarkAblationDMT(b *testing.B) { runExperiment(b, "ablation-dmt") }

// BenchmarkSVEEdge regenerates the padded-vs-predicated A64FX comparison.
func BenchmarkSVEEdge(b *testing.B) {
	tbl := runExperiment(b, "sve-edge")
	b.ReportMetric(cell(b, tbl, 0, 3), "padded/predicated")
}

// BenchmarkPackKernels regenerates the packing-kernel validation.
func BenchmarkPackKernels(b *testing.B) { runExperiment(b, "pack-kernels") }

// BenchmarkLargeSquare regenerates the large-square crossover sweep.
func BenchmarkLargeSquare(b *testing.B) {
	tbl := runExperiment(b, "large-square")
	b.ReportMetric(cell(b, tbl, len(tbl.Rows)-1, 4), "auto/OpenBLAS-at-384")
}

// BenchmarkRunParallel measures the host-side parallel functional path:
// one 64x64x48 job claimed by up to 4 pool workers.
func BenchmarkRunParallel(b *testing.B) {
	chip := hw.KP920()
	plan, err := coreNewPlan(chip)
	if err != nil {
		b.Fatal(err)
	}
	const m, n, k = 64, 64, 48
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(bb, k, n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := plan.Submit(context.Background(), c, a, bb, 4, sched.QoS{})
		if err == nil {
			err = fut.Wait()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// coreNewPlan builds the 64x64x48 plan BenchmarkRunParallel uses.
func coreNewPlan(chip *hw.Chip) (*core.Plan, error) {
	return core.NewPlan(chip, 64, 64, 48, core.AutoOptions(chip))
}
