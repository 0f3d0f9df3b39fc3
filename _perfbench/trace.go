package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, interval, the span
// that caused it (-1 for an operation's root) and the operation it
// belongs to.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Op         int64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once the run
// ends. It is safe for concurrent use (the serve workload records
// client and handler spans from different goroutines).
type tracer struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index, the handle children use as
// their parent.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// children indexes each span's children by parent index.
func (t *tracer) children() map[int][]int {
	kids := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered returns how much of span i's interval its children cover,
// counting overlapping children once.
func (t *tracer) covered(i int, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	root := t.spans[i]
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := t.spans[k].Start, t.spans[k].End
		if a.Before(root.Start) {
			a = root.Start
		}
		if b.After(root.End) {
			b = root.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
	var total time.Duration
	var curA, curB time.Time
	for j, v := range ivs {
		switch {
		case j == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// The stage-sum check: the child spans of every span that has children
// must cover it up to stageSumShare of its duration plus an absolute
// slack. The uncovered rest is time no layer accounts for. Between two
// layer calls the benchmark itself runs there, which takes microseconds,
// so the slack is small. Inside a served request's round trip, between
// the client's write, the handler and the client's read, the transport
// runs there: client.Do's set-up, the server reading the request and
// the response's last flush, about 0.1 ms at the median and up to
// 0.8 ms at the 99th percentile with the heavy phase's load on 2 CPUs;
// so the round trip's slack is 1 ms. A span passes when its uncovered
// time is within tolerance, and every parent name must pass for at
// least stageSumPass of its spans. That share leaves room for the
// scattered spans a descheduled goroutine stretches when the host
// steals CPU time (with a third of it stolen, 95% of round trips
// passed); a gap every operation has fails them all.
const (
	stageSumShare     = 0.10
	stageSumSlack     = 100 * time.Microsecond
	transportSlack    = time.Millisecond
	transportSpanName = "client.roundtrip"
)

// stageSumPass is the share of a parent name's spans that must pass the
// stage-sum check for the traced run to be valid.
const stageSumPass = 0.90

// uncoveredLimit is the uncovered time the stage-sum check allows span
// s.
func uncoveredLimit(s span) time.Duration {
	slack := stageSumSlack
	if s.Name == transportSpanName {
		slack = transportSlack
	}
	return time.Duration(stageSumShare*float64(s.dur())) + slack
}

// splitSums is the stage-sum result for the spans of one name that
// have children.
type splitSums struct {
	name         string
	spans, ok    int
	uncoveredP50 float64
}

// stageSums checks every span that has children against its children
// and returns one result per parent span name, in name order.
func (t *tracer) stageSums() []splitSums {
	kids := t.children()
	unc := map[string][]float64{}
	ok := map[string]int{}
	for i, s := range t.spans {
		if len(kids[i]) == 0 {
			continue
		}
		gap := s.dur() - t.covered(i, kids[i])
		u := 0.0
		if s.dur() > 0 {
			u = float64(gap) / float64(s.dur())
		}
		unc[s.Name] = append(unc[s.Name], u)
		if gap <= uncoveredLimit(s) {
			ok[s.Name]++
		}
	}
	var out []splitSums
	for name, us := range unc {
		out = append(out, splitSums{name: name, spans: len(us), ok: ok[name], uncoveredP50: quantile(us, 0.5)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// write stores the spans as one JSON object per line (times in
// nanoseconds since the tracer started) under dir.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n",
			i, s.Name, s.Start.Sub(t.epoch).Nanoseconds(), s.End.Sub(t.epoch).Nanoseconds(), s.Parent, s.Op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
