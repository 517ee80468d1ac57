package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Open- and closed-loop drivers. Open loop models independent users:
// operation i is due at start+dues[i] whatever the system is doing, and
// is timed from that due time, so a stall shows up in every operation
// queued behind it. Closed loop models callers that wait for their
// reply: each worker sends its next operation only when the previous
// one has returned.

// evenSchedule returns n due offsets spaced 1/rate apart.
func evenSchedule(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range dues {
		dues[i] = time.Duration(float64(i) * step)
	}
	return dues
}

// mergeSchedules merges two sorted due lists into one sorted stream of
// (list, index) pairs, so one generator can release both.
type release struct {
	due  time.Duration
	list int
	idx  int
}

func mergeSchedules(a, b []time.Duration) []release {
	out := make([]release, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			out = append(out, release{due: a[i], list: 0, idx: i})
			i++
		} else {
			out = append(out, release{due: b[j], list: 1, idx: j})
			j++
		}
	}
	return out
}

// loopStats is what the open-loop generator measures about itself, per
// operation and relative to the due time: how late the generator
// released it, and when a worker picked it up.
type loopStats struct {
	late   []time.Duration
	queued []time.Duration
}

// openLoop releases every entry of rel at start+due to the pool serving
// its list (pools[list] workers each), calls do for it on a pool worker,
// and returns when all have completed. Each list gets its own workers,
// so a slow operation of one kind never holds up the other.
func openLoop(start time.Time, rel []release, pools []int, do func(list, idx int)) loopStats {
	st := loopStats{late: make([]time.Duration, len(rel)), queued: make([]time.Duration, len(rel))}
	chans := make([]chan int, len(pools))
	var wg sync.WaitGroup
	for l, n := range pools {
		// Buffered to the whole schedule: the generator must never block
		// on a busy pool, or waiting would be booked as lateness instead
		// of queueing.
		chans[l] = make(chan int, len(rel))
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for k := range chans[l] {
					st.queued[k] = time.Since(start) - rel[k].due
					do(l, rel[k].idx)
				}
			}(l)
		}
	}
	generate(start, rel, st.late, chans)
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	return st
}

// generate is the generator loop. It runs on a locked OS thread with
// the kernel's timer slack cut to 1ns, sleeping in nanosleep: the Go
// runtime rounds sub-millisecond timer waits up to a millisecond when
// idle, which would make the generator, not the system, the dominant
// delay of a 100µs operation.
func generate(start time.Time, rel []release, late []time.Duration, chans []chan int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Best effort: if prctl fails only precision is lost, and lateness
	// is measured either way.
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for k, r := range rel {
		if wait := r.due - time.Since(start); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			// An interrupted sleep releases early; lateness still
			// records what happened.
			_ = syscall.Nanosleep(&ts, nil)
		}
		late[k] = time.Since(start) - r.due
		chans[r.list] <- k
	}
}

// closedLoop runs workers goroutines until the deadline, each calling do
// with its worker number and consecutive sequence numbers drawn from one
// shared counter.
func closedLoop(deadline time.Time, workers int, do func(worker, seq int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				seq := next
				next++
				mu.Unlock()
				do(w, seq)
			}
		}(w)
	}
	wg.Wait()
}
