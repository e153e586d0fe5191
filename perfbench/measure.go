package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// recorder collects one client's operation latencies and round times with
// no allocation except a new window every windowOps operations, which it
// counts so allocation figures can leave it out.
//
// Latencies are kept exactly (nanoseconds as uint32) in windows of a fixed
// operation count; each window yields its own p50 and p99, and the run
// reports the median over windows. Throughput is taken per round (a fixed
// batch of pre-drawn operations) and reported as the median over rounds.
// Medians over windows and rounds keep a burst of interference from a
// neighbouring process out of the figures without discarding the tail
// inside each window.
type recorder struct {
	windowOps int
	windows   [][]uint32
	cur       []uint32
	allocs    int64 // allocations made by the recorder itself

	roundOps   int
	roundStart time.Time
	roundRates []float64 // operations per second of each completed round

	sumNs int64 // total latency, for the mean
	ops   int64
}

func newRecorder(windowOps, roundOps int) *recorder {
	return &recorder{
		windowOps:  windowOps,
		windows:    make([][]uint32, 0, 1<<10),
		roundOps:   roundOps,
		roundRates: make([]float64, 0, 1<<14),
	}
}

// add records one operation's latency.
func (r *recorder) add(d time.Duration) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			if len(r.windows) == cap(r.windows) {
				r.allocs++
			}
			r.windows = append(r.windows, r.cur)
		}
		r.cur = make([]uint32, 0, r.windowOps)
		r.allocs++
	}
	ns := int64(d)
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.cur = append(r.cur, uint32(ns))
	r.sumNs += ns
	r.ops++
}

// startRound marks the start of a round of roundOps operations.
func (r *recorder) startRound(t time.Time) { r.roundStart = t }

// endRound closes the round started last.
func (r *recorder) endRound(t time.Time) {
	if len(r.roundRates) == cap(r.roundRates) {
		r.allocs++
	}
	r.roundRates = append(r.roundRates, float64(r.roundOps)/t.Sub(r.roundStart).Seconds())
}

// latencyQuantiles returns the median over full windows of each window's
// p50 and p99, in microseconds. A run too short to fill one window uses
// the partial one.
func latencyQuantiles(recs ...*recorder) (p50, p99 float64) {
	var full, partial [][]uint32
	for _, r := range recs {
		full = append(full, r.windows...)
		if len(r.cur) == r.windowOps {
			full = append(full, r.cur)
		} else if len(r.cur) > 0 {
			partial = append(partial, r.cur)
		}
	}
	if len(full) == 0 {
		full = partial
	}
	var p50s, p99s []float64
	for _, w := range full {
		slices.Sort(w)
		p50s = append(p50s, quantileSorted(w, 0.50))
		p99s = append(p99s, quantileSorted(w, 0.99))
	}
	return median(p50s) / 1e3, median(p99s) / 1e3
}

// meanNs returns the mean recorded latency.
func meanNs(recs ...*recorder) float64 {
	var sum, n int64
	for _, r := range recs {
		sum += r.sumNs
		n += r.ops
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// throughput sums, over clients, the median per-round rate of each.
func throughput(recs ...*recorder) float64 {
	total := 0.0
	for _, r := range recs {
		total += median(slices.Clone(r.roundRates))
	}
	return total
}

// quantileSorted returns the nearest-rank q-quantile of sorted samples.
func quantileSorted(s []uint32, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}

// median returns the median of xs, reordering xs; 0 when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the mean of xs; 0 when xs is empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// Set-up is timed over several builds and reported as the median, so one
// slow build does not move setup_s: at least minSetupReps builds, more
// until minSetupTime has passed, at most maxSetupReps.
const (
	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = 500 * time.Millisecond
)

// timeSetup builds the program state repeatedly and returns the last build
// with the median build time in seconds. Earlier builds are garbage once it
// returns. A short run builds once.
func timeSetup[T any](cfg config, build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for start := time.Now(); ; {
		var zero T
		last = zero
		runtime.GC() // start each build from the same heap state
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
		n := len(secs)
		if cfg.short || n >= maxSetupReps || n >= minSetupReps && time.Since(start) >= minSetupTime {
			break
		}
	}
	return last, median(secs), nil
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
