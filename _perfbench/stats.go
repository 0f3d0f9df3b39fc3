package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// seconds converts a float count of seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; where that is unavailable it falls back to the
// memory the Go runtime has obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// rng is a splitmix64 generator: every shape, operand seed and arrival
// time is derived from the run seed through it, so a seed reproduces
// the inputs exactly on any platform.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponentially distributed value with the given mean.
func (r *rng) exp(mean float64) float64 { return -math.Log(1-r.float()) * mean }

// quickWindows is the share of a run's windows, its quickest, that the
// reported latencies and rates are read from. On a shared VM the host
// only ever adds time, and it does so in phases of seconds to minutes
// in which the same code runs up to twice as slowly; a median over
// windows lands in whichever phase held most of the run, and so jumps
// between runs. The 10th percentile over windows reads the run's
// quicker phases: on a 7-minute trace of a fixed CPU loop on such a VM,
// the spread between 30-second runs of their per-second median was
// 0.11 of the median when read at the 10th percentile over seconds and
// 0.47 when read at the median. The price is that a slowdown the
// program causes in only a few windows of a run (a rare pause) moves
// the metric less than one present in every window.
const quickWindows = 0.10

// samples are the timed operations of one population, each tagged with
// the measurement window it fell in: a second of run time, or one pass
// on resnet50.
type samples struct {
	calls []time.Duration // successful operations
	win   []int           // window of each successful operation
	flops []float64       // useful FLOPs of each successful operation
	sent  int64           // operations attempted, failed ones included
}

func (s *samples) add(d time.Duration, win int, flops float64, ok bool) {
	s.sent++
	if ok {
		s.calls = append(s.calls, d)
		s.win = append(s.win, win)
		s.flops = append(s.flops, flops)
	}
}

// windows groups the operations' indices by window, in window order.
func (s *samples) windows() [][]int {
	byWin := map[int][]int{}
	var ids []int
	for i, w := range s.win {
		if _, ok := byWin[w]; !ok {
			ids = append(ids, w)
		}
		byWin[w] = append(byWin[w], i)
	}
	sort.Ints(ids)
	out := make([][]int, len(ids))
	for i, w := range ids {
		out[i] = byWin[w]
	}
	return out
}

// latQuantile is the q-quantile latency in milliseconds, read from the
// quicker windows: each window's q-quantile, then their quickWindows
// quantile, the low end because a lower latency is quicker.
func (s *samples) latQuantile(q float64) float64 {
	var per []float64
	for _, idx := range s.windows() {
		lat := make([]float64, len(idx))
		for j, i := range idx {
			lat[j] = ms(s.calls[i])
		}
		per = append(per, quantile(lat, q))
	}
	return quantile(per, quickWindows)
}

// rate is the useful-FLOP rate in GFLOP/s read from the quicker
// windows: each window's useful FLOPs over its operations' summed
// duration, then their 1-quickWindows quantile, the high end because
// a higher rate is quicker.
func (s *samples) rate() float64 {
	var per []float64
	for _, idx := range s.windows() {
		var f float64
		var d time.Duration
		for _, i := range idx {
			f += s.flops[i]
			d += s.calls[i]
		}
		per = append(per, f/d.Seconds()/1e9)
	}
	return quantile(per, 1-quickWindows)
}

// hostCPU is the machine's cumulative CPU accounting from /proc/stat,
// in clock ticks: time spent busy (stolen time included) and time the
// hypervisor ran something else while this machine wanted to run.
type hostCPU struct {
	busy, steal uint64
	ok          bool
}

// readHostCPU reads the aggregate cpu line of /proc/stat. Where it is
// unavailable the result is not ok.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return hostCPU{}
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7], ok: true}
}
