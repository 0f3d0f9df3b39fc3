package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"autogemm"
	"autogemm/internal/serve"
)

// declared is BENCHMARK.json's metric list.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShortRunEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks that the result line carries exactly the declared
// metrics with their units, and that every operation was correct.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, wl := range []string{"resnet50", "small-irregular", "serve-mixed"} {
		for _, trace := range []string{"0", "1"} {
			want := d.EndToEnd
			if trace == "1" {
				want = d.PerLayer
			}
			var stdout, stderr bytes.Buffer
			code := benchMain([]string{"--workload", wl, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", wl, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", wl, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", wl, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %s: metric %s = %v", wl, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestMetricsDocumented checks that metrics.json explains every
// declared metric and workload.
func TestMetricsDocumented(t *testing.T) {
	d := readDeclared(t)
	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]json.RawMessage
		EndToEnd  map[string]json.RawMessage `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range d.EndToEnd {
		if doc.EndToEnd[m.Name] == nil {
			t.Errorf("metrics.json lacks end-to-end metric %s", m.Name)
		}
	}
	for _, m := range d.PerLayer {
		if doc.PerLayer[m.Name] == nil {
			t.Errorf("metrics.json lacks per-layer metric %s", m.Name)
		}
	}
	for name := range workloads {
		if doc.Workloads[name] == nil {
			t.Errorf("metrics.json lacks workload %s", name)
		}
	}
}

// TestWrongBitsCaught seeds a wrong result into each correctness gate.
func TestWrongBitsCaught(t *testing.T) {
	p := newProblem(shape{26, 36, 20}, 3)
	eng, err := autogemm.New(chipName, autogemm.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := make([]float32, p.M*p.N)
	if _, ok := (&caller{eng: eng}).call(p, c); !ok {
		t.Fatal("a correct call was rejected")
	}

	// A call whose result disagrees with refgemm fails the operation
	// and the run.
	r := newRNG(5, 0)
	bad := *p
	bad.ref = append([]float32(nil), p.ref...)
	bad.ref[r.intn(len(bad.ref))] += 0.5
	rep := newReport()
	_, ok := (&caller{eng: eng}).call(&bad, c)
	rep.op(ok)
	if ok || rep.result().Correct {
		t.Error("a wrong result passed the refgemm gate")
	}
	nan := append([]float32(nil), p.ref...)
	nan[r.intn(len(nan))] = float32(math.NaN())
	if p.correct(nan) {
		t.Error("a NaN result passed the refgemm gate")
	}

	// A served result one bit away from the Engine.Multiply reference
	// fails, single and batched.
	in, err := newServeInputs(5, []shape{{26, 36, 20}}, []shape{{48, 40, 32}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss := in.single[0]
	if !singleCorrect(ss.want, ss) {
		t.Fatal("the reference's own encoding was rejected")
	}
	flipped := append([]float32(nil), ss.ref...)
	i := r.intn(len(flipped))
	flipped[i] = math.Float32frombits(math.Float32bits(flipped[i]) ^ 1)
	body, _ := json.Marshal(serve.MultiplyResponse{C: flipped})
	if singleCorrect(body, ss) {
		t.Error("a served result one bit off passed the bit comparison")
	}
	b := in.batch[0]
	var lines []byte
	for e, el := range b.elems {
		cs := el.ref
		if e == 1 {
			cs = append([]float32(nil), el.ref...)
			cs[0] = math.Float32frombits(math.Float32bits(cs[0]) ^ 1)
		}
		l, _ := json.Marshal(serve.BatchLine{Index: e, C: cs})
		lines = append(append(lines, l...), '\n')
	}
	if batchCorrect(lines, b) {
		t.Error("a batch with one element one bit off passed")
	}
}

// TestGeneratorReportsLateness drives the open loop against a handler
// slower than the arrival rate allows: the generator must keep the
// schedule, time requests from their due time and report how late it
// ran and the backlog, rather than silently slowing down.
func TestGeneratorReportsLateness(t *testing.T) {
	in, err := newServeInputs(1, []shape{{26, 36, 20}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const service = 20 * time.Millisecond
	s := &server{}
	s.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write(in.single[0].want)
	}))
	defer s.close()
	// 40 arrivals due within 100 ms; two connections serve 100/s.
	arrivals := make([]arrival, 40)
	for i := range arrivals {
		arrivals[i].due = time.Duration(i) * 2500 * time.Microsecond
	}
	st := s.replay(in, arrivals, 0, false)
	if st.backlogMax < 10 {
		t.Errorf("backlog max %d, want a growing backlog reported", st.backlogMax)
	}
	last := st.reqs[len(st.reqs)-1]
	if !last.ok {
		t.Fatalf("request failed with status %d", last.status)
	}
	if late := last.sent.Sub(last.due); late < 300*time.Millisecond {
		t.Errorf("last request sent %v after its due time, want the generator's lateness recorded", late)
	}
	if last.latency() < last.done.Sub(last.sent)+300*time.Millisecond {
		t.Errorf("latency %v does not count the wait since the due time", last.latency())
	}
}

// TestStageSumCatchesGap checks that a traced run fails when a split
// leaves part of its parent uncovered: at an operation's root, and
// below it, in a round trip whose handler starts long after the
// request was written.
func TestStageSumCatchesGap(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	check := func(tr *tracer) result {
		rep := newReport()
		rep.op(true)
		rep.traceChecks(tr, []time.Duration{time.Millisecond}, []time.Duration{time.Millisecond})
		return rep.result()
	}
	call := func(multiplyFrom int) *tracer {
		tr := newTracer()
		for op := int64(0); op < 10; op++ {
			root := tr.add("autogemm.call", at(0), at(10), -1, op)
			tr.add("autogemm.planfor", at(0), at(1), root, op)
			tr.add("autogemm.multiply_planned", at(multiplyFrom), at(10), root, op)
		}
		return tr
	}
	request := func(handlerFrom int) *tracer {
		tr := newTracer()
		for op := int64(0); op < 10; op++ {
			root := tr.add("serve.request", at(0), at(20), -1, op)
			tr.add("client.queue", at(0), at(2), root, op)
			rt := tr.add("client.roundtrip", at(2), at(20), root, op)
			tr.add("client.write", at(2), at(3), rt, op)
			tr.add("serve.handler", at(handlerFrom), at(19), rt, op)
			tr.add("client.read", at(19), at(20), rt, op)
		}
		return tr
	}
	if res := check(call(1)); !res.Correct {
		t.Error("a fully covered call failed the stage-sum check")
	}
	if res := check(call(5)); res.Correct {
		t.Error("a call with 4 ms of its 10 uncovered passed the stage-sum check")
	}
	if res := check(request(3)); !res.Correct {
		t.Error("a fully covered request failed the stage-sum check")
	}
	res := check(request(10))
	if res.Correct {
		t.Error("a round trip with 7 ms of its 18 uncovered passed the stage-sum check")
	}
	if v := res.Metrics["trace.stage_sum_ok_share"].Value; v >= 1 {
		t.Errorf("trace.stage_sum_ok_share = %v with every round trip uncovered", v)
	}
}

// TestStageSumCatchesTransportGap serves traced requests through a
// stall that sits between the client and the timed handler, where only
// the transport should be: the round trips' stage sums must fail, and
// pass without the stall.
func TestStageSumCatchesTransportGap(t *testing.T) {
	in, err := newServeInputs(1, []shape{{26, 36, 20}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, stall := range []time.Duration{0, 5 * time.Millisecond} {
		s := &server{tr: newTracer()}
		h := s.timed(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(in.single[0].want)
		}))
		s.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(stall)
			h.ServeHTTP(w, r)
		}))
		arrivals := make([]arrival, 50)
		for i := range arrivals {
			arrivals[i].due = time.Duration(i) * 10 * time.Millisecond
		}
		st := s.replay(in, arrivals, 0, true)
		s.close()
		rep := newReport()
		var lat []time.Duration
		for _, q := range st.reqs {
			rep.op(q.ok)
			s.record(q)
			lat = append(lat, q.latency())
		}
		rep.traceChecks(s.tr, lat, lat)
		if got := rep.result().Correct; got != (stall == 0) {
			t.Errorf("stall %v: run correct = %v, want %v; notes %q", stall, got, stall == 0, rep.notes)
		}
	}
}
