package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a percentile with fewer samples past it is one or two
// outliers, not a distribution.
const minBeyond = 10

// samples is a set of timings in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, us(d)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median (0 for no samples).
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	return o[(len(o)-1)/2]
}

// tail applies the percentile rule: it returns the value at the highest
// percentile, at most maxPct, that still has at least minBeyond samples
// beyond it, together with that percentile. ok is false when there are
// too few samples for any such percentile.
func (s samples) tail(maxPct float64) (value, pct float64, ok bool) {
	n := len(s)
	k := tailRank(n, maxPct)
	if k < 0 {
		return 0, 0, false
	}
	o := s.sorted()
	return o[k], 100 * float64(k+1) / float64(n), true
}

// tailRank is the 0-based rank of the percentile rule's sample in a
// sorted set of n, or -1 when none qualifies.
func tailRank(n int, maxPct float64) int {
	capRank := int(math.Ceil(maxPct/100*float64(n))) - 1
	return min(capRank, n-1-minBeyond)
}

// p99 is tail(99) with 0 for too few samples.
func (s samples) p99() float64 {
	v, _, _ := s.tail(99)
	return v
}

// medianOf returns the nearest-rank median of xs (0 for none).
func medianOf(xs []float64) float64 { return samples(xs).median() }

// chunkSize is the number of consecutive samples per chunk when a
// timing is summarised chunk by chunk: enough for a p99 with 20 samples
// beyond it.
const chunkSize = 2000

// chunked summarises a time-ordered series by cutting it into
// consecutive chunks of chunkSize (the last chunk absorbs the rest),
// taking stat of each, and returning the median over chunks. A burst
// of host noise then moves one or two chunks instead of the whole
// figure. Series shorter than two chunks are summarised whole.
func (s samples) chunked(stat func(samples) float64) float64 {
	n := len(s) / chunkSize
	if n < 2 {
		return stat(s)
	}
	var per []float64
	for i := 0; i < n; i++ {
		end := (i + 1) * chunkSize
		if i == n-1 {
			end = len(s)
		}
		per = append(per, stat(s[i*chunkSize:end]))
	}
	return medianOf(per)
}

// p50c and p99c are the chunked median and p99.
func (s samples) p50c() float64 { return s.chunked(samples.median) }
func (s samples) p99c() float64 { return s.chunked(samples.p99) }

// windowRate is a closed loop's completion rate summarised like chunked:
// the phase of length total is cut into whole windows of length win,
// and the median over windows of events per second is returned. at
// holds each event's offset from the phase start. Phases shorter than
// two windows are summarised whole.
func windowRate(at []time.Duration, total, win time.Duration) float64 {
	n := int(total / win)
	if n < 2 {
		return float64(len(at)) / total.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range at {
		if i := int(t / win); i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return medianOf(counts)
}

// Set-up is timed several times per run and reported as the median: at
// least minSetups times, and up to maxSetups while the set-ups so far
// took under setupBudget.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// moreSetups reports whether set-up number i should run, given the
// durations (seconds) of those before it; single asks for exactly one.
func moreSetups(i int, done []float64, single bool) bool {
	switch {
	case single:
		return i == 0
	case i < minSetups:
		return true
	case i >= maxSetups:
		return false
	}
	var spent float64
	for _, d := range done {
		spent += d
	}
	return spent < setupBudget.Seconds()
}

// sampleCPU records the process CPU time at start, start+win, ... for n
// windows and returns the n+1 readings; it returns once the last is taken.
func sampleCPU(start time.Time, n int, win time.Duration) []time.Duration {
	cpu := make([]time.Duration, n+1)
	for i := range cpu {
		time.Sleep(time.Until(start.Add(time.Duration(i) * win)))
		cpu[i] = cpuTime()
	}
	return cpu
}

// cpuPerOp summarises CPU time per completed operation like windowRate:
// per window, the CPU time spent (from sampleCPU readings) over the
// operations completed (at: offsets from the phase start), in µs, and
// the median over windows.
func cpuPerOp(cpu []time.Duration, at []time.Duration, win time.Duration) float64 {
	n := len(cpu) - 1
	if n < 1 {
		return 0
	}
	ops := make([]int, n)
	for _, t := range at {
		if i := int(t / win); i >= 0 && i < n {
			ops[i]++
		}
	}
	var per []float64
	for i, c := range ops {
		if c > 0 {
			per = append(per, us(cpu[i+1]-cpu[i])/float64(c))
		}
	}
	return medianOf(per)
}
