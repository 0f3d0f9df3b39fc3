package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"autogemm"
	"autogemm/internal/hw"
	"autogemm/internal/sched"
	"autogemm/internal/serve"
	"autogemm/internal/vtime"
	"autogemm/internal/workload"
)

// The -serve-load mode measures the serving stack end to end: a real
// internal/serve front door over a real engine, driven by many
// concurrent HTTP clients split across a latency tenant (small shapes,
// per-request deadlines, high weight, unbounded) and a batch tenant
// (bigger shapes, mixed single/batch requests, low weight, shallow
// admission depth — the tenant that sheds under saturation). Every
// successful response is compared bit-for-bit against a serial
// reference computed on an independent engine: the acceptance bar is
// zero corruption under full multi-tenant concurrency.
//
// Mid-run the harness retunes the batch class through POST /v1/classes
// with a weight-only update — the live form of the ConfigureClass
// keep-on-zero regression: the response must show the depth bound
// preserved, and the class's Rejected counter must keep advancing
// afterwards (still shedding ⇒ the bound survived the retune).
//
// Concurrency discipline: the clients are tasks of one job on an
// auxiliary scheduler pool and the HTTP server is httptest's — this
// file spawns no goroutines (the goroutine vet pass covers cmd too).

const (
	serveLatencyTenant = "interactive"
	serveBatchTenant   = "analytics"
	serveLatencyClass  = "latency"
	serveBatchClass    = "batch"
	serveBatchDepth    = 4 // shallow on purpose: saturation must shed
	serveBatchElems    = 8 // per NDJSON batch request — deliberately > depth
)

// The load shapes are small irregular GEMMs (the paper's 26×36×20
// running example among them), not the ResNet-50 set: request bodies
// are JSON float arrays, so megabyte operands would measure JSON
// encoding, not serving. Latency-tenant shapes are tiny (kilobyte
// bodies, sub-millisecond kernels); batch-tenant shapes are a bit
// heavier so their jobs dwell in the queue under the 16:1 weight
// disadvantage — which is what drives the class past its admission
// depth when each batch request bursts serveBatchElems submissions.
func serveLoadShapes() (latency, batch []workload.Shape) {
	latency = []workload.Shape{
		{Name: "s26x36x20", M: 26, N: 36, K: 20},
		{Name: "s48x40x32", M: 48, N: 40, K: 32},
		{Name: "s64x48x24", M: 64, N: 48, K: 24},
	}
	batch = []workload.Shape{
		{Name: "b96x96x96", M: 96, N: 96, K: 96},
		{Name: "b128x96x64", M: 128, N: 96, K: 64},
		{Name: "b160x64x80", M: 160, N: 64, K: 80},
	}
	return latency, batch
}

// serveLoadClassResult is one tenant class's client-side outcome.
type serveLoadClassResult struct {
	Class        string  `json:"class"`
	Tenant       string  `json:"tenant"`
	Clients      int     `json:"clients"`
	Requests     int64   `json:"requests"` // HTTP requests issued
	GEMMs        int64   `json:"gemms"`    // elements across them
	OK           int64   `json:"ok"`       // elements that returned a result
	Shed         int64   `json:"shed"`     // elements refused 429/ErrAdmission
	DeadlineMiss int64   `json:"deadlineMiss"`
	OtherErrors  int64   `json:"otherErrors"`
	ShedRate     float64 `json:"shedRate"` // shed / elements
	P50Ms        float64 `json:"p50Ms"`    // successful-request latency
	P99Ms        float64 `json:"p99Ms"`
	MaxMs        float64 `json:"maxMs"`
}

// serveLoadReport is the -serve-load result written into the serveLoad
// section of BENCH_<tag>.json.
type serveLoadReport struct {
	Chip        string  `json:"chip"`
	Workers     int     `json:"engineWorkers"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"durationSec"`

	Requests   int64   `json:"requests"`   // all HTTP requests
	GEMMs      int64   `json:"gemms"`      // all elements submitted
	OKPerSec   float64 `json:"okPerSec"`   // completed elements / sec (saturation throughput)
	Corruption int64   `json:"corruption"` // responses differing from the serial reference bits — must be 0

	// The live weight-only-retune regression: depth bound surviving the
	// retune and the Rejected counter still advancing afterwards.
	RetuneDepthKept      bool  `json:"retuneDepthKept"`
	RetuneShedsAfter     int64 `json:"retuneShedsAfter"`
	RetuneWeightApplied  bool  `json:"retuneWeightApplied"`
	ServerRejectedTotal  int64 `json:"serverRejectedTotal"`
	ServerCompletedTotal int64 `json:"serverCompletedTotal"`

	Classes []serveLoadClassResult `json:"classes"`
}

// serveClientStats is one client task's tally, merged after the job.
type serveClientStats struct {
	requests, gemms, ok, shed, deadline, other, corrupt int64
	latMs                                               []float64
}

// serveShape is one workload shape with its serial reference bits.
type serveShape struct {
	s   workload.Shape
	a   []float32
	b   []float32
	ref []float32
}

// prepServeShapes computes each shape's operands and serial reference
// on an independent single-worker engine — the bits every served
// response must reproduce exactly.
func prepServeShapes(chip *hw.Chip, shapes []workload.Shape) ([]serveShape, error) {
	ref, err := autogemm.New(chip.Name, autogemm.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	out := make([]serveShape, 0, len(shapes))
	for _, s := range shapes {
		ss := serveShape{
			s:   s,
			a:   make([]float32, s.M*s.K+4*chip.Lanes),
			b:   make([]float32, s.K*s.N+2*s.N+4*chip.Lanes),
			ref: make([]float32, s.M*s.N),
		}
		fill(ss.a, 3)
		fill(ss.b, 5)
		if err := ref.Multiply(ss.ref, ss.a, ss.b, s.M, s.N, s.K); err != nil {
			return nil, fmt.Errorf("%s reference: %w", s.Name, err)
		}
		out = append(out, ss)
	}
	return out, nil
}

// runServeLoad stands the serving stack up and saturates it.
func runServeLoad(chip *hw.Chip, clients, engineWorkers int, duration time.Duration) (serveLoadReport, error) {
	rep := serveLoadReport{Chip: chip.Name, Workers: engineWorkers, Clients: clients, DurationSec: duration.Seconds()}

	eng, err := autogemm.New(chip.Name, autogemm.WithWorkers(engineWorkers))
	if err != nil {
		return rep, err
	}
	defer eng.Close()
	srv, err := serve.New(serve.Config{
		Engine: eng,
		Tenants: map[string]serve.TenantConfig{
			serveLatencyTenant: {Class: serveLatencyClass, Weight: 16, DeadlineMs: 10_000},
			serveBatchTenant:   {Class: serveBatchClass, Weight: 1, Depth: serveBatchDepth},
		},
	})
	if err != nil {
		return rep, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	latSet, batSet := serveLoadShapes()
	latShapes, err := prepServeShapes(chip, latSet)
	if err != nil {
		return rep, err
	}
	batShapes, err := prepServeShapes(chip, batSet)
	if err != nil {
		return rep, err
	}

	// Warm every plan through the server so the timed window measures
	// serving, not cold planning.
	transport := &http.Transport{MaxIdleConnsPerHost: clients + 2}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport}
	warm := func(tenant string, shapes []serveShape) error {
		cl := &serve.Client{Base: hs.URL, Tenant: tenant, HTTP: httpc}
		for _, ss := range shapes {
			if _, err := cl.Multiply(context.Background(), ss.s.M, ss.s.N, ss.s.K, ss.a, ss.b, 0); err != nil {
				return fmt.Errorf("warm %s: %w", ss.s.Name, err)
			}
		}
		return nil
	}
	if err := warm(serveLatencyTenant, latShapes); err != nil {
		return rep, err
	}
	if err := warm(serveBatchTenant, batShapes); err != nil {
		return rep, err
	}

	// Client fleet: 2/3 latency, 1/3 batch, each client one task of one
	// job on an auxiliary pool sized to the fleet (tasks block on HTTP
	// I/O, so every client needs its own worker).
	batClients := clients / 3
	if batClients == 0 {
		batClients = 1
	}
	latClients := clients - batClients
	stats := make([]serveClientStats, clients)
	stopAt := time.Now().Add(duration)

	clientLoop := func(task int) {
		st := &stats[task]
		isBatch := task < batClients
		tenant, shapes := serveLatencyTenant, latShapes
		if isBatch {
			tenant, shapes = serveBatchTenant, batShapes
		}
		cl := &serve.Client{Base: hs.URL, Tenant: tenant, HTTP: httpc}
		rng := uint32(2*task + 1)
		for n := 0; time.Now().Before(stopAt); n++ {
			rng = rng*1664525 + 1013904223
			ss := &shapes[rng%uint32(len(shapes))]
			start := time.Now()
			if isBatch && n%2 == 1 {
				// Every other batch-tenant request is an NDJSON batch of
				// serveBatchElems elements — more than the class's depth
				// bound, so saturation sheds the burst's tail. The rest
				// are single multiplies.
				elems := make([]serve.GEMMRequest, serveBatchElems)
				for i := range elems {
					rng = rng*1664525 + 1013904223
					es := &shapes[rng%uint32(len(shapes))]
					elems[i] = serve.GEMMRequest{M: es.s.M, N: es.s.N, K: es.s.K, A: es.a, B: es.b}
				}
				st.requests++
				st.gemms += int64(len(elems))
				lines, err := cl.Batch(context.Background(), elems)
				if err != nil {
					st.other += int64(len(elems))
					continue
				}
				okAll := true
				for i, line := range lines {
					if err := line.Err(); err != nil {
						okAll = false
						st.tallyErr(err)
						continue
					}
					st.ok++
					want := elems[i]
					// Match the element back to its shape by extents.
					for j := range shapes {
						if shapes[j].s.M == want.M && shapes[j].s.N == want.N && shapes[j].s.K == want.K {
							if !float32BitsEqual(shapes[j].ref, line.C) {
								st.corrupt++
							}
							break
						}
					}
				}
				if okAll {
					st.latMs = append(st.latMs, float64(time.Since(start).Microseconds())/1e3)
				}
				continue
			}
			st.requests++
			st.gemms++
			c, err := cl.Multiply(context.Background(), ss.s.M, ss.s.N, ss.s.K, ss.a, ss.b, 0)
			if err != nil {
				st.tallyErr(err)
				continue
			}
			st.ok++
			st.latMs = append(st.latMs, float64(time.Since(start).Microseconds())/1e3)
			if !float32BitsEqual(ss.ref, c) {
				st.corrupt++
			}
		}
	}

	fleet := sched.New(clients, 0)
	defer fleet.Close()
	fut, err := fleet.Submit(context.Background(), clients, 0, sched.QoS{}, func(w *sched.Worker, task int) error {
		clientLoop(task)
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Mid-load, from the main goroutine: snapshot the batch class, apply
	// a weight-only retune, and check the admission depth survived it.
	time.Sleep(duration / 2)
	ctl := &serve.Client{Base: hs.URL, HTTP: httpc}
	before, err := ctl.ConfigureClass(context.Background(), serveBatchClass, 0, 0) // pure read: 0,0 keeps both
	if err != nil {
		return rep, fmt.Errorf("pre-retune snapshot: %w", err)
	}
	after, err := ctl.ConfigureClass(context.Background(), serveBatchClass, 8, 0) // the weight-only retune
	if err != nil {
		return rep, fmt.Errorf("retune: %w", err)
	}
	rep.RetuneWeightApplied = after.Weight == 8
	rep.RetuneDepthKept = after.Depth == serveBatchDepth

	if err := fut.Wait(); err != nil {
		return rep, fmt.Errorf("client fleet: %w", err)
	}

	// Post-load: the bound kept shedding after the retune.
	final, ok := eng.ClassStats(serveBatchClass)
	if !ok {
		return rep, fmt.Errorf("batch class vanished from the scheduler")
	}
	rep.RetuneShedsAfter = final.Rejected - before.Rejected
	rep.ServerRejectedTotal = final.Rejected
	if cs, ok := eng.ClassStats(serveLatencyClass); ok {
		rep.ServerCompletedTotal = cs.Completed + final.Completed
	}

	// Fold the per-client tallies into per-class results.
	foldClass := func(class, tenant string, lo, hi int) serveLoadClassResult {
		out := serveLoadClassResult{Class: class, Tenant: tenant, Clients: hi - lo}
		var lats []float64
		for i := lo; i < hi; i++ {
			st := &stats[i]
			out.Requests += st.requests
			out.GEMMs += st.gemms
			out.OK += st.ok
			out.Shed += st.shed
			out.DeadlineMiss += st.deadline
			out.OtherErrors += st.other
			rep.Corruption += st.corrupt
			lats = append(lats, st.latMs...)
		}
		if out.GEMMs > 0 {
			out.ShedRate = round3(float64(out.Shed) / float64(out.GEMMs))
		}
		if len(lats) > 0 {
			out.P50Ms = round3(vtime.Quantile(lats, 0.5))
			out.P99Ms = round3(vtime.Quantile(lats, 0.99))
			out.MaxMs = round3(vtime.Quantile(lats, 1))
		}
		return out
	}
	bat := foldClass(serveBatchClass, serveBatchTenant, 0, batClients)
	lat := foldClass(serveLatencyClass, serveLatencyTenant, batClients, batClients+latClients)
	rep.Classes = []serveLoadClassResult{bat, lat}
	rep.Requests = bat.Requests + lat.Requests
	rep.GEMMs = bat.GEMMs + lat.GEMMs
	rep.OKPerSec = round3(float64(bat.OK+lat.OK) / duration.Seconds())
	return rep, nil
}

// tallyErr buckets one element error by its sentinel identity — the
// identities serve.ErrorForStatus reconstructed from the HTTP status.
func (st *serveClientStats) tallyErr(err error) {
	switch autogemm.HTTPStatus(err) {
	case http.StatusTooManyRequests:
		st.shed++
	case http.StatusGatewayTimeout:
		st.deadline++
	default:
		st.other++
	}
}

// assertServeLoad gates the serving acceptance bar: zero corruption,
// both classes making progress, the depth-bounded class actually
// shedding, and the weight-only retune preserving the bound live.
func assertServeLoad(rep serveLoadReport) error {
	if rep.Corruption != 0 {
		return fmt.Errorf("serve assert: %d corrupted responses (served bits differ from serial reference)", rep.Corruption)
	}
	for _, c := range rep.Classes {
		if c.OK == 0 {
			return fmt.Errorf("serve assert: class %s completed no work", c.Class)
		}
	}
	var bat *serveLoadClassResult
	for i := range rep.Classes {
		if rep.Classes[i].Class == serveBatchClass {
			bat = &rep.Classes[i]
		}
	}
	if bat == nil || bat.Shed == 0 {
		return fmt.Errorf("serve assert: depth-bounded class %s never shed — the load did not saturate admission", serveBatchClass)
	}
	if !rep.RetuneWeightApplied {
		return fmt.Errorf("serve assert: weight-only retune did not apply the new weight")
	}
	if !rep.RetuneDepthKept {
		return fmt.Errorf("serve assert: weight-only retune dropped the depth bound (the ConfigureClass regression)")
	}
	if rep.RetuneShedsAfter == 0 {
		return fmt.Errorf("serve assert: Rejected counter stopped advancing after the retune — depth bound lost live")
	}
	fmt.Fprintf(os.Stderr, "serve assert ok: %d clients, %.0f ok/s, batch shed rate %.3f, retune kept depth %d (sheds after: %d), corruption 0\n",
		rep.Clients, rep.OKPerSec, bat.ShedRate, serveBatchDepth, rep.RetuneShedsAfter)
	return nil
}

// runServeLoadMode is the -serve-load entry point.
func runServeLoadMode(chipName string, clients, engineWorkers int, duration time.Duration, emitJSON bool, assert bool, updateBench, tag string) error {
	chip, err := hw.ByName(chipName)
	if err != nil {
		return err
	}
	if clients < 2 {
		return fmt.Errorf("-serve-clients must be at least 2 (one per tenant)")
	}
	fmt.Fprintf(os.Stderr, "serve-load on %s: %d clients, %d engine workers, %v...\n",
		chip.Name, clients, engineWorkers, duration)
	rep, err := runServeLoad(chip, clients, engineWorkers, duration)
	if err != nil {
		return err
	}
	if assert {
		if err := assertServeLoad(rep); err != nil {
			return err
		}
	}
	if emitJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		printServeLoad(rep)
	}
	if updateBench == "merge" {
		if err := mergeServeLoad(tag, rep); err != nil {
			return err
		}
	}
	return nil
}

func printServeLoad(rep serveLoadReport) {
	fmt.Printf("%s  %d clients over %d engine workers, %.1fs: %.0f ok/s, corruption %d\n",
		rep.Chip, rep.Clients, rep.Workers, rep.DurationSec, rep.OKPerSec, rep.Corruption)
	for _, c := range rep.Classes {
		fmt.Printf("  %-8s (%s, %d clients)  %6d gemms  ok %6d  shed %5d (%.3f)  miss %4d  p50 %8.1fms  p99 %8.1fms\n",
			c.Class, c.Tenant, c.Clients, c.GEMMs, c.OK, c.Shed, c.ShedRate, c.DeadlineMiss, c.P50Ms, c.P99Ms)
	}
	fmt.Printf("  retune: weight applied %v, depth kept %v, sheds after %d\n",
		rep.RetuneWeightApplied, rep.RetuneDepthKept, rep.RetuneShedsAfter)
}

// mergeServeLoad folds the report into BENCH_<tag>.json, like
// mergeSimQoS.
func mergeServeLoad(tag string, rep serveLoadReport) error {
	path := "BENCH_" + tag + ".json"
	var res benchResult
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("merge into %s: %w", path, err)
		}
	} else {
		res.Tag = tag
	}
	res.ServeLoad = &rep
	out, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged serveLoad into %s\n", path)
	return nil
}
