package main

import (
	"sync"
	"time"

	"autogemm"
	"autogemm/internal/workload"
)

// The resnet50 workload is one caller running ResNet-50 inference: the
// 20 Table V layers in order as one pass, repeated, each layer one
// Engine.Multiply on exact-size operands. Plans are warmed during
// set-up, so planning shows only in setup_s and cold_ms_p50 and the
// timed passes measure execution: kernels, packing and the per-job
// scheduling path. Serving is bypassed.

// resnetLimit is the latency limit goodput counts a layer call against.
const resnetLimit = 500 * time.Millisecond

func resnetShapes() []shape {
	var out []shape
	for _, s := range workload.ResNet50() {
		out = append(out, shape{s.M, s.N, s.K})
	}
	return out
}

// resnetProblems builds the layers' seeded operands and refgemm
// references, two layers at a time.
func resnetProblems(seed uint64) []*problem {
	shapes := resnetShapes()
	probs := make([]*problem, len(shapes))
	r := newRNG(seed, 1)
	seeds := make([]uint64, len(shapes))
	for i := range seeds {
		seeds[i] = r.next()
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(shapes); i += 2 {
				probs[i] = newProblem(shapes[i], seeds[i])
			}
		}(w)
	}
	wg.Wait()
	return probs
}

// resnetSetup builds an engine and warms the 20 layer plans, returning
// each layer's first (cold) plan resolution time.
func resnetSetup() (*autogemm.Engine, []time.Duration, error) {
	eng, err := autogemm.New(chipName)
	if err != nil {
		return nil, nil, err
	}
	cold, err := warmPlans(eng, resnetShapes())
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return eng, cold, nil
}

// resnetPasses runs whole passes until budget is spent (at least one).
// Each pass is one window: gflops is the quicker passes' rate, and the
// latency percentiles are each pass's percentiles over its 20 layer
// calls read from the quicker passes, so lat_ms_p90 lies between a
// pass's 18th and 19th slowest layer.
func resnetPasses(cl *caller, probs []*problem, cs [][]float32, budget time.Duration, rep *report) *samples {
	st := &samples{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for i, p := range probs {
			d, ok := cl.call(p, cs[i])
			rep.op(ok)
			st.add(d, pass, p.flops(), ok)
		}
	}
	return st
}

func runResNet(cfg config, rep *report) error {
	var su setups
	eng, err := repeat(&su, resnetSetup, closeEngine)
	if err != nil {
		return err
	}
	defer eng.Close()
	probs := resnetProblems(cfg.seed)
	cs := make([][]float32, len(probs))
	for i, p := range probs {
		cs[i] = make([]float32, p.M*p.N)
	}
	st := resnetPasses(&caller{eng: eng}, probs, cs, seconds(cfg.seconds), rep)
	model, err := modelGFLOPS(eng, resnetShapes())
	if err != nil {
		return err
	}
	eng.Close()
	last, err := repeat(&su, resnetSetup, closeEngine)
	if err != nil {
		return err
	}
	last.Close()
	rep.endToEnd(median(su.secs), su.cold, st, st.rate(), model, within(st.calls, resnetLimit, st.sent))
	return nil
}
