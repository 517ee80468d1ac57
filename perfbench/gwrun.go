package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// gwWorkload fixes one gateway workload's traffic.
type gwWorkload struct {
	// openRate is the open-loop decide rate. On the 2-core host the
	// benchmark was sized on, gateway-hot's closed-loop capacity is about
	// 13k decides/s and gateway-churn's about 7k; at half of either, host
	// scheduling stalls left a growing backlog, so the rate is ~15% of
	// gateway-hot's capacity, which both workloads sustain.
	openRate float64
	// commitRate is the admin's /v1/credentials rate (0: no KeyCOM
	// plane). Every commit makes each hot principal re-mint; above a few
	// per second that alone saturates the host.
	commitRate float64
	// tailShare of decides come from the uniform tail.
	tailShare float64
}

var gwWorkloads = map[string]gwWorkload{
	"gateway-hot":   {openRate: 2000},
	"gateway-churn": {openRate: 2000, commitRate: 5, tailShare: 0.10},
}

const (
	// openShare of a phase is open loop, the rest closed loop.
	openShare = 0.5
	// decideLimit is the latency limit a closed-loop decide must meet to
	// count toward capacity.
	decideLimit = 5 * time.Millisecond
	// closedStream is the length of the pre-generated closed-loop stream,
	// cycled when a phase sends more.
	closedStream = 50_000
	// recoverRepeats is how many times recover_s restarts on the store.
	recoverRepeats = 3
	// rateWindow is the window closed-loop rates are taken over.
	rateWindow = time.Second
	// warmCommits are committed during warm-up, so the first automatic
	// snapshot (every 64 commits) falls early in the measured phase.
	warmCommits = 40
	// setupAllowance covers the set-ups: their budget plus one more.
	setupAllowance = setupBudget + 4*time.Second
)

// gwHalf is what one measured pass over a gateway workload yields.
type gwHalf struct {
	setup   float64 // seconds, median over set-ups including warm-up
	singles samples // open-loop single decide latency from due, µs
	bulks   samples // open-loop bulk decide latency from due, µs
	late    samples // generator lateness, µs
	queued  samples // due → picked up by a connection, µs
	// Closed loop: latency of every correct decide (µs), the process's
	// CPU per correct decide (µs), and each decide's sequence number.
	closedLat  samples
	cpuPerOp   float64
	closedSent []sentDecide
	capacity   float64 // closed loop: correct 200s within decideLimit per second
	liveHeap   float64 // MB in use after the open loop, system still up
	commits    samples // commit ack latency from due, µs
	acked      int
	recover    samples // seconds
	replayed   int
	out        outcome

	// Traced only.
	layers layerVals
	parts  *breakdown
}

// runGatewayHalf sets a gateway workload up, warms it, and measures it
// for secs seconds: open loop, then closed loop, inside one wall-clock
// minute.
func runGatewayHalf(w gwWorkload, seed int64, secs float64, traced bool, work string, single bool) (*gwHalf, error) {
	h := &gwHalf{}
	openSecs := secs * openShare
	closedSecs := secs - openSecs
	nOpen := int(w.openRate * openSecs)
	nCommitOpen := int(w.commitRate * openSecs)
	nCommitClosed := int(w.commitRate * closedSecs)

	var (
		sys     *gwSystem
		client  *gwClient
		tr      *traffic
		updates [][]byte
		seed0   seeded
		dir     string
		admin   *keys.KeyPair
		builds  []float64
		// warmAcked counts the kept system's warm-up commits.
		warmAcked int
	)
	if w.commitRate > 0 {
		admin = keys.Deterministic("Kadmin", "perfbench-"+strconv.FormatInt(seed, 10))
	}
	// shutdown stops the current system; the last one is stopped before
	// the store is reopened, or on any early return.
	shutdown := func() error {
		if sys == nil {
			return nil
		}
		client.close()
		err := sys.close()
		sys = nil
		return err
	}
	defer shutdown()
	// The bridge buckets credential expiry, and the gateway the query's
	// clock, to the minute: at a boundary every hot principal re-mints
	// and every cached decision misses. Set-up, warm-up and both phases
	// therefore run inside one minute, so every run crosses none and the
	// kept system's caches hold exactly one minute's entries.
	waitForMinute(time.Duration(secs*float64(time.Second)) + setupAllowance)
	for i := 0; moreSetups(i, builds, single); i++ {
		if err := shutdown(); err != nil {
			return nil, err
		}
		if dir != "" {
			os.RemoveAll(dir) // an earlier set-up's store
		}
		dir = ""
		// Each set-up starts from a collected heap, so the peak resident
		// set does not depend on when the collector last ran.
		runtime.GC()
		start := time.Now()
		// About one span per decide: open loop, plus a closed loop at up
		// to 16k decides/s.
		cfg := gwConfig{seed: seed, admin: admin, traced: traced, spanWindow: 2*(nOpen+int(16_000*closedSecs)) + 1024}
		if w.commitRate > 0 {
			dir = filepath.Join(work, fmt.Sprintf("store-%v-%d", traced, i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			var err error
			if seed0, err = seedStore(dir); err != nil {
				return nil, fmt.Errorf("seed store: %w", err)
			}
			cfg.storeDir = dir
		}
		next, err := buildGateway(cfg)
		if err != nil {
			return nil, err
		}
		sys, client = next, newGWClient(next.url)
		tr = newTraffic(seed, nOpen, closedStream, w.tailShare)
		// Tokens expire an hour past the run, so no token ages out inside it.
		if err := tr.signTokens(sys.secret, time.Now().Add(time.Hour)); err != nil {
			return nil, err
		}
		warmAcked = 0
		if w.commitRate > 0 {
			if updates, err = presignUpdates(admin, warmCommits+nCommitOpen+nCommitClosed); err != nil {
				return nil, err
			}
			// A running daemon's store is somewhere between snapshots;
			// these commits put it warmCommits into the cadence.
			for _, u := range updates[:warmCommits] {
				if err := client.sendCommit(u); err != nil {
					return nil, fmt.Errorf("warm-up commit: %w", err)
				}
				warmAcked++
			}
			updates = updates[warmCommits:]
		}
		if err := warmGateway(client, tr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	h.setup = medianOf(builds)

	// Should set-up have overrun its allowance, the phases still get a
	// minute of their own, after an untimed warm-up in it.
	if left := time.Until(time.Now().Truncate(time.Minute).Add(time.Minute)); left < time.Duration((secs+0.5)*float64(time.Second)) {
		waitForMinute(time.Minute)
		if err := warmGateway(client, tr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	before := sys.tel.Snapshot()
	var disk0 diskCounts
	if sys.disk != nil {
		disk0 = sys.disk.counts()
	}

	// Open loop: decides at openRate on decideConns connections, commits
	// at commitRate on the admin connection, all timed from due.
	decDues := evenSchedule(nOpen, w.openRate)
	comDues := evenSchedule(nCommitOpen, w.commitRate)
	rel := mergeSchedules(decDues, comDues)
	lat := make([]time.Duration, nOpen)
	service := make([]time.Duration, nOpen)
	errs := make([]error, nOpen)
	comLat := make([]time.Duration, nCommitOpen)
	comErr := make([]error, nCommitOpen)
	start := time.Now().Add(10 * time.Millisecond)
	ls := openLoop(start, rel, []int{decideConns, 1}, func(list, i int) {
		if list == 0 {
			sent := time.Now()
			errs[i] = client.sendDecide(tr, tr.open[i], "o"+strconv.Itoa(i))
			done := time.Now()
			service[i] = done.Sub(sent)
			lat[i] = done.Sub(start) - decDues[i]
			return
		}
		comErr[i] = client.sendCommit(updates[i])
		comLat[i] = time.Since(start) - comDues[i]
	})
	for k, r := range rel {
		if r.list == 0 {
			h.late.add(ls.late[k])
			h.queued.add(ls.queued[k])
		}
	}
	for i, d := range tr.open {
		h.out.record(errs[i])
		if errs[i] != nil {
			continue
		}
		if tr.bodies[d.body].bulk {
			h.bulks.add(lat[i])
		} else {
			h.singles.add(lat[i])
		}
	}
	for i := range comLat {
		h.out.record(comErr[i])
		if comErr[i] == nil {
			h.commits.add(comLat[i])
			h.acked++
		}
	}

	// Here the benchmark's own buffers have a size fixed by the schedule;
	// later they grow with the closed loop's throughput.
	h.liveHeap = liveHeapMB()

	// Closed loop on decideConns connections, the admin's commits still
	// arriving at their rate.
	var wg sync.WaitGroup
	comLat2 := make([]time.Duration, nCommitClosed)
	comErr2 := make([]error, nCommitClosed)
	cstart := time.Now()
	deadline := cstart.Add(time.Duration(closedSecs * float64(time.Second)))
	if nCommitClosed > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dues := evenSchedule(nCommitClosed, w.commitRate)
			openLoop(cstart, mergeSchedules(dues, nil), []int{1}, func(_, i int) {
				comErr2[i] = client.sendCommit(updates[nCommitOpen+i])
				comLat2[i] = time.Since(cstart) - dues[i]
			})
		}()
	}
	good := make([][]time.Duration, decideConns)
	doneAt := make([][]time.Duration, decideConns)
	csent := make([][]sentDecide, decideConns)
	closedOut := &outcome{}
	windows := int(deadline.Sub(cstart) / rateWindow)
	cpuc := make(chan []time.Duration, 1)
	go func() { cpuc <- sampleCPU(cstart, windows, rateWindow) }()
	closedLoop(deadline, decideConns, func(w, seq int) {
		d := tr.closed[seq%len(tr.closed)]
		t0 := time.Now()
		err := client.sendDecide(tr, d, "c"+strconv.Itoa(seq))
		closedOut.record(err)
		if err != nil {
			return
		}
		done := time.Now()
		doneAt[w] = append(doneAt[w], done.Sub(cstart))
		csent[w] = append(csent[w], sentDecide{seq: seq, took: done.Sub(t0)})
		if done.Sub(t0) <= decideLimit {
			good[w] = append(good[w], done.Sub(cstart))
		}
	})
	var goodAt, allAt []time.Duration
	for w := range csent {
		for _, sd := range csent[w] {
			h.closedLat.add(sd.took)
		}
		h.closedSent = append(h.closedSent, csent[w]...)
		goodAt = append(goodAt, good[w]...)
		allAt = append(allAt, doneAt[w]...)
	}
	h.cpuPerOp = cpuPerOp(<-cpuc, allAt, rateWindow)
	h.capacity = windowRate(goodAt, deadline.Sub(cstart), rateWindow)
	wg.Wait()
	h.out.add(closedOut)
	for i := range comLat2 {
		h.out.record(comErr2[i])
		if comErr2[i] == nil {
			h.commits.add(comLat2[i])
			h.acked++
		}
	}

	if traced {
		h.layers, h.parts = gatewayLayers(sys, before, disk0, h, tr, service, errs)
		// Every acknowledged commit must have invalidated the decide engine.
		if inv := h.layers["authz.invalidations"]; int(inv) != h.acked {
			h.out.record(fmt.Errorf("%w: %v engine invalidations for %d acked commits", errWrongAnswer, inv, h.acked))
		}
	}

	// authzd restart on the store: the acked commits must all be there.
	if err := shutdown(); err != nil {
		return nil, err
	}
	if w.commitRate > 0 {
		for i := 0; i < recoverRepeats; i++ {
			r, err := recoverStore(dir, admin)
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			h.out.record(checkRecovered(r, seed0, warmAcked+h.acked))
			h.recover = append(h.recover, r.took.Seconds())
			h.replayed = r.replayed
		}
	}
	return h, nil
}

// sentDecide is one correct closed-loop decide: its sequence number and
// how long the client waited for it.
type sentDecide struct {
	seq  int
	took time.Duration
}

// warmGateway sends every hot principal one bulk asking all its
// (operation, object) pairs, over both decide connections, so the mint,
// session and decision caches hold the hot set; and opens the admin
// connection.
func warmGateway(c *gwClient, tr *traffic) error {
	var wg sync.WaitGroup
	errs := make([]error, decideConns)
	for w := 0; w < decideConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < hotPrincipals; p += decideConns {
				if err := c.sendDecide(tr, decide{who: p, body: tr.warm}, ""); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	resp, err := c.admin.Get(c.url + "/v1/status")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status: %d", resp.StatusCode)
	}
	return nil
}

// waitForMinute sleeps into the next wall-clock minute unless need fits
// in what is left of the current one.
func waitForMinute(need time.Duration) {
	now := time.Now()
	left := now.Truncate(time.Minute).Add(time.Minute).Sub(now)
	if left < need {
		time.Sleep(left + 50*time.Millisecond)
	}
}

// counterDelta returns after-before for a counter, and whether the
// program still emits it.
func counterDelta(before, after telemetry.Snapshot, name string) (float64, bool) {
	a, ok := after.Counters[name]
	return float64(a - before.Counters[name]), ok
}
