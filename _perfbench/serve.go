package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autogemm"
	"autogemm/internal/serve"
)

// The serve-mixed workload is an open loop through the real
// serve.Server handler over loopback. Two tenants share the engine's
// scheduler: "interactive" sends single /v1/multiply requests on the
// small latency shapes, "analytics" sends low-rate /v1/batch NDJSON
// requests on heavier shapes. Interactive arrivals are Poisson at a
// light and then a heavy fixed rate. The highest rate at which the seed
// commit kept interactive p99 within serveLimit without a growing
// backlog was about 550/s on a 2-vCPU shared VM while its host was
// quiet, and about 260/s while its host ran twice as slow, which it
// does for seconds to minutes at a time; the rates are about 25% and
// 60% of the slow figure, so the heavy phase stays below saturation in
// a slow host phase and its latency does not jump with queueing when
// the host slows. Every request is timed from when it was due, so a
// stall counts against the requests queued behind it.
// JSON decode and encode dominate a request here, so serving-layer
// changes show in this workload and not in the other two.

const (
	interactiveTenant = "interactive"
	analyticsTenant   = "analytics"

	lightRate     = 60.0  // interactive requests per second, light phase
	heavyRate     = 160.0 // interactive requests per second, heavy phase
	analyticsRate = 1.0   // analytics batch requests per second, both phases
	batchElems    = 3     // GEMMs per analytics batch request: one of each shape
	batchVariants = 8     // distinct seeded batch compositions
	lightShare    = 0.3   // share of the run in the light phase

	// analyticsDepth bounds the analytics class's jobs in flight; set
	// high enough that the load never sheds.
	analyticsDepth = 256
	// clientConns is the number of client threads and connections that
	// drive the open loop.
	clientConns = 2
	// serveLimit is the latency limit goodput counts interactive
	// requests against.
	serveLimit = 25 * time.Millisecond

	opHeader = "X-Perfbench-Op"
)

func interactiveShapes() []shape { return []shape{{26, 36, 20}, {48, 40, 32}, {64, 48, 24}} }
func analyticsShapes() []shape   { return []shape{{96, 96, 96}, {128, 96, 64}, {160, 64, 80}} }

// servedShape is one problem with its pre-encoded request body and the
// direct Engine.Multiply reference every served result must match bit
// for bit.
type servedShape struct {
	p    *problem
	ref  []float32
	body []byte // /v1/multiply request
	want []byte // the response body the reference encodes to
}

type servedBatch struct {
	elems []*servedShape
	body  []byte
	flops float64
}

// serveInputs are a replay's requests.
type serveInputs struct {
	single []*servedShape
	batch  []*servedBatch
}

// newServeInputs builds seeded operands for the shapes, computes each
// reference with Engine.Multiply on a separate single-worker engine,
// checks it against refgemm, and pre-encodes the request bodies so
// the client spends no encoding time inside the timed loop.
func newServeInputs(seed uint64, single, batched []shape, elems int) (*serveInputs, error) {
	refEng, err := autogemm.New(chipName, autogemm.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	defer refEng.Close()
	r := newRNG(seed, 7)
	mk := func(s shape) (*servedShape, error) {
		ss := &servedShape{p: newProblem(s, r.next()), ref: make([]float32, s.M*s.N)}
		if err := refEng.Multiply(ss.ref, ss.p.a, ss.p.b, s.M, s.N, s.K); err != nil {
			return nil, fmt.Errorf("reference %dx%dx%d: %w", s.M, s.N, s.K, err)
		}
		if !ss.p.correct(ss.ref) {
			return nil, fmt.Errorf("reference %dx%dx%d disagrees with refgemm", s.M, s.N, s.K)
		}
		var err error
		if ss.body, err = json.Marshal(serve.GEMMRequest{M: s.M, N: s.N, K: s.K, A: ss.p.a, B: ss.p.b}); err != nil {
			return nil, err
		}
		if ss.want, err = json.Marshal(serve.MultiplyResponse{C: ss.ref}); err != nil {
			return nil, err
		}
		ss.want = append(ss.want, '\n')
		return ss, nil
	}
	in := &serveInputs{}
	for _, s := range single {
		ss, err := mk(s)
		if err != nil {
			return nil, err
		}
		in.single = append(in.single, ss)
	}
	var pool []*servedShape
	for _, s := range batched {
		ss, err := mk(s)
		if err != nil {
			return nil, err
		}
		pool = append(pool, ss)
	}
	// Each batch carries every batched shape elems/len(pool) times (at
	// least once) in a seeded order, so all batches are the same work.
	for v := 0; v < batchVariants && len(pool) > 0; v++ {
		b := &servedBatch{}
		var req serve.BatchRequest
		n := max(elems, len(pool))
		order := make([]int, n)
		for e := range order {
			order[e] = e % len(pool)
		}
		for e := n - 1; e > 0; e-- {
			j := r.intn(e + 1)
			order[e], order[j] = order[j], order[e]
		}
		for _, k := range order[:elems] {
			ss := pool[k]
			b.elems = append(b.elems, ss)
			b.flops += ss.p.flops()
			req.Elements = append(req.Elements, serve.GEMMRequest{M: ss.p.M, N: ss.p.N, K: ss.p.K, A: ss.p.a, B: ss.p.b})
		}
		if b.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		in.batch = append(in.batch, b)
	}
	return in, nil
}

// arrival is one scheduled request: due is its offset from the start
// of the phase; batch selects an analytics batch request.
type arrival struct {
	due   time.Duration
	batch bool
	idx   int
}

// schedule draws the phase's arrivals in due order: interactive
// requests Poisson at rate per second, analytics batches evenly spaced
// at batchRate from a seeded offset, so every run carries the same
// number of batches.
func schedule(r *rng, phase time.Duration, rate, batchRate float64, in *serveInputs) []arrival {
	var out []arrival
	for t := r.exp(1 / rate); t < phase.Seconds(); t += r.exp(1 / rate) {
		out = append(out, arrival{due: seconds(t), idx: r.intn(len(in.single))})
	}
	if batchRate > 0 && len(in.batch) > 0 {
		for t := r.float() / batchRate; t < phase.Seconds(); t += 1 / batchRate {
			out = append(out, arrival{due: seconds(t), batch: true, idx: r.intn(len(in.batch))})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// servedReq is one request's outcome. taken is when a client goroutine
// took the arrival (after waiting for its due time if it was early),
// sent when it handed the request to the client.
type servedReq struct {
	batch                  bool
	idx                    int
	op                     int64
	traced                 bool
	due, taken, sent, done time.Time

	mu                        sync.Mutex // the client trace hooks run on transport goroutines
	gotConn, wrote, firstByte time.Time
	ok                        bool
	status                    int
	reqBytes, respBytes       int
	gemms                     int
	flops                     float64
}

func (q *servedReq) latency() time.Duration { return q.done.Sub(q.due) }

// server is one engine behind the serving handler on a loopback
// listener, with the client that drives it.
type server struct {
	eng    *autogemm.Engine
	hs     *httptest.Server
	client *http.Client
	tr     *tracer

	mu       sync.Mutex
	handlers map[int64][2]time.Time // op -> handler start, end (traced)
}

// newServer builds the engine and the serve.Server on it and starts
// the listener. With a tracer, a wrapper times every handler call.
func newServer(tr *tracer) (*server, error) {
	eng, err := autogemm.New(chipName)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Engine: eng,
		Tenants: map[string]serve.TenantConfig{
			interactiveTenant: {Class: interactiveTenant, Weight: 16},
			analyticsTenant:   {Class: analyticsTenant, Weight: 1, Depth: analyticsDepth},
		},
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &server{eng: eng, tr: tr}
	h := srv.Handler()
	if tr != nil {
		h = s.timed(h)
	}
	s.listen(h)
	return s, nil
}

// timed wraps a handler so that every traced request's handler call is
// timed, keyed by the operation id the client sent in opHeader.
func (s *server) timed(inner http.Handler) http.Handler {
	s.handlers = map[int64][2]time.Time{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			inner.ServeHTTP(w, r) // an untraced request
			return
		}
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		t1 := time.Now()
		s.mu.Lock()
		s.handlers[op] = [2]time.Time{t0, t1}
		s.mu.Unlock()
	})
}

// listen starts the loopback listener and the client that drives it.
func (s *server) listen(h http.Handler) {
	s.hs = httptest.NewServer(h)
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
	}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	if s.eng != nil {
		s.eng.Close()
	}
}

// send posts one request and checks its answer against the references.
// The response is read into buf, which each client goroutine reuses so
// the client adds little garbage to the process the server runs in.
func (s *server) send(q *servedReq, in *serveInputs, buf *bytes.Buffer) {
	path, tenant, body := "/v1/multiply", interactiveTenant, []byte(nil)
	if q.batch {
		path, tenant, body = "/v1/batch", analyticsTenant, in.batch[q.idx].body
		q.gemms, q.flops = len(in.batch[q.idx].elems), in.batch[q.idx].flops
	} else {
		body = in.single[q.idx].body
		q.gemms, q.flops = 1, in.single[q.idx].p.flops()
	}
	q.reqBytes = len(body)
	req, err := http.NewRequest(http.MethodPost, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		q.done = time.Now()
		return
	}
	req.Header.Set(serve.TenantHeader, tenant)
	req.Header.Set("Content-Type", "application/json")
	if q.traced {
		req.Header.Set(opHeader, strconv.FormatInt(q.op, 10))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) {
				q.mu.Lock()
				q.gotConn = time.Now()
				q.mu.Unlock()
			},
			WroteRequest: func(httptrace.WroteRequestInfo) {
				q.mu.Lock()
				q.wrote = time.Now()
				q.mu.Unlock()
			},
			GotFirstResponseByte: func() {
				q.mu.Lock()
				q.firstByte = time.Now()
				q.mu.Unlock()
			},
		}))
	}
	q.sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		q.done = time.Now()
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	q.done = time.Now()
	q.status = resp.StatusCode
	data := buf.Bytes()
	q.respBytes = len(data)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if q.batch {
		q.ok = batchCorrect(data, in.batch[q.idx])
	} else {
		q.ok = singleCorrect(data, in.single[q.idx])
	}
}

// singleCorrect bit-compares a /v1/multiply answer with the reference:
// equal bytes prove it cheaply; anything else is decoded and compared.
func singleCorrect(data []byte, ss *servedShape) bool {
	if bytes.Equal(data, ss.want) {
		return true
	}
	var mr serve.MultiplyResponse
	return json.Unmarshal(data, &mr) == nil && sameBits(mr.C, ss.ref)
}

// batchCorrect checks that every element of a /v1/batch answer arrived
// once, without error, bit-identical to its reference.
func batchCorrect(data []byte, b *servedBatch) bool {
	seen := make([]bool, len(b.elems))
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	n := 0
	for sc.Scan() {
		var line serve.BatchLine
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Error != "" ||
			line.Index < 0 || line.Index >= len(seen) || seen[line.Index] ||
			!sameBits(line.C, b.elems[line.Index].ref) {
			return false
		}
		seen[line.Index] = true
		n++
	}
	return sc.Err() == nil && n == len(seen)
}

// replayStats is what one open-loop phase measured.
type replayStats struct {
	reqs       []*servedReq
	backlogMax int
	start      time.Time
	elapsed    time.Duration
}

// replay drives the arrivals open loop from clientConns client
// goroutines. Each goroutine takes the next arrival, waits for its due
// time if it is early, and sends it; when both are busy the arrivals
// that fall due wait, and that wait is part of their latency. The
// generator never slows the schedule down: lateness and the backlog
// of due-but-unsent arrivals are recorded instead.
func (s *server) replay(in *serveInputs, arrivals []arrival, opBase int64, traced bool) replayStats {
	st := replayStats{reqs: make([]*servedReq, len(arrivals))}
	var next atomic.Int64
	var backlog atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else {
					// Arrivals already due and not yet taken, this one
					// included.
					now := time.Since(start)
					k := sort.Search(len(arrivals), func(j int) bool { return arrivals[j].due > now })
					for b := int64(k - i); ; {
						cur := backlog.Load()
						if b <= cur || backlog.CompareAndSwap(cur, b) {
							break
						}
					}
				}
				q := &servedReq{batch: a.batch, idx: a.idx, op: opBase + int64(i), traced: traced, due: due, taken: time.Now()}
				s.send(q, in, &buf)
				st.reqs[i] = q
			}
		}()
	}
	wg.Wait()
	st.start, st.elapsed = start, time.Since(start)
	st.backlogMax = int(backlog.Load())
	return st
}

// record adds a traced request's spans and returns its handler
// interval. The root runs from the due time to the last response byte;
// under it are the generator's wait (client.queue, due to taken) and
// the round trip (sent to done), and under the round trip the request
// write from the client's side (connection obtained to request
// written), the handler call, and the response read (first byte to
// done). Every child is timed at its own boundaries, so the stage-sum
// check sees the time no layer accounts for: the benchmark building a
// request, and the transport between the client and the handler.
func (s *server) record(q *servedReq) (handler [2]time.Time, ok bool) {
	q.mu.Lock()
	gotConn, wrote, firstByte := q.gotConn, q.wrote, q.firstByte
	q.mu.Unlock()
	root := s.tr.add("serve.request", q.due, q.done, -1, q.op)
	s.tr.add("client.queue", q.due, q.taken, root, q.op)
	rt := s.tr.add("client.roundtrip", q.sent, q.done, root, q.op)
	if !gotConn.IsZero() && !wrote.IsZero() {
		s.tr.add("client.write", gotConn, wrote, rt, q.op)
	}
	s.mu.Lock()
	handler, ok = s.handlers[q.op]
	s.mu.Unlock()
	if ok {
		s.tr.add("serve.handler", handler[0], handler[1], rt, q.op)
	}
	if !firstByte.IsZero() {
		s.tr.add("client.read", firstByte, q.done, rt, q.op)
	}
	return handler, ok
}

// serveSetup builds the engine and server and sends each shape's first
// request, timing the interactive ones: the cold first calls.
func serveSetup(in *serveInputs, tr *tracer) (*server, []time.Duration, error) {
	s, err := newServer(tr)
	if err != nil {
		return nil, nil, err
	}
	var cold []time.Duration
	var buf bytes.Buffer
	for i := range in.single {
		q := &servedReq{idx: i, due: time.Now(), op: -1 - int64(i)}
		s.send(q, in, &buf)
		if !q.ok {
			s.close()
			return nil, nil, fmt.Errorf("warm-up request %d failed with status %d", i, q.status)
		}
		cold = append(cold, q.latency())
	}
	for i := range in.batch {
		q := &servedReq{batch: true, idx: i, due: time.Now(), op: -100 - int64(i)}
		s.send(q, in, &buf)
		if !q.ok {
			s.close()
			return nil, nil, fmt.Errorf("warm-up batch %d failed with status %d", i, q.status)
		}
	}
	return s, cold, nil
}

// phaseStats summarises one phase: the interactive requests in
// one-second windows of their due times, and the analytics requests.
type phaseStats struct {
	lat      *samples
	batchLat []time.Duration // successful analytics requests, from due time
	flops    float64         // useful FLOPs of every successful request
}

func summarize(st replayStats, start time.Time, rep *report) phaseStats {
	ps := phaseStats{lat: &samples{}}
	for _, q := range st.reqs {
		rep.op(q.ok)
		if q.ok {
			ps.flops += q.flops
		}
		if q.batch {
			if q.ok {
				ps.batchLat = append(ps.batchLat, q.latency())
			}
			continue
		}
		ps.lat.add(q.latency(), int(q.due.Sub(start)/time.Second), q.flops, q.ok)
	}
	return ps
}

func runServe(cfg config, rep *report) error {
	in, err := newServeInputs(cfg.seed, interactiveShapes(), analyticsShapes(), batchElems)
	if err != nil {
		return err
	}
	build := func() (*server, []time.Duration, error) { return serveSetup(in, nil) }
	var su setups
	s, err := repeat(&su, build, (*server).close)
	if err != nil {
		return err
	}
	defer s.close()
	r := newRNG(cfg.seed, 8)
	lst := s.replay(in, schedule(r, seconds(lightShare*cfg.seconds), lightRate, analyticsRate, in), 0, false)
	hst := s.replay(in, schedule(r, seconds((1-lightShare)*cfg.seconds), heavyRate, analyticsRate, in), 1<<20, false)
	light, heavy := summarize(lst, lst.start, rep), summarize(hst, hst.start, rep)
	var shapes []shape
	for _, ss := range in.single {
		shapes = append(shapes, ss.p.shape)
	}
	model, err := modelGFLOPS(s.eng, append(shapes, analyticsShapes()...))
	if err != nil {
		return err
	}
	// In an open loop the served rate is the offered rate, unless the
	// server falls behind and the replay runs past its schedule.
	gflops := (light.flops + heavy.flops) / (lst.elapsed + hst.elapsed).Seconds() / 1e9
	s.close()
	last, err := repeat(&su, build, (*server).close)
	if err != nil {
		return err
	}
	last.close()
	rep.endToEnd(median(su.secs), su.cold, heavy.lat, gflops, model, within(heavy.lat.calls, serveLimit, heavy.lat.sent))
	rep.note("light phase %.0f/s: %d sent, p50 %.3f ms, p99 %.3f ms, analytics p50 %.3f ms, backlog max %d",
		lightRate, light.lat.sent, quantile(msList(light.lat.calls), 0.5), quantile(msList(light.lat.calls), 0.99),
		quantile(msList(light.batchLat), 0.5), lst.backlogMax)
	rep.note("heavy phase %.0f/s: %d sent, p50 %.3f ms, p99 %.3f ms, analytics p50 %.3f ms, backlog max %d",
		heavyRate, heavy.lat.sent, quantile(msList(heavy.lat.calls), 0.5), quantile(msList(heavy.lat.calls), 0.99),
		quantile(msList(heavy.batchLat), 0.5), hst.backlogMax)
	return nil
}
