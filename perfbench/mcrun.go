package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/telemetry"
)

// mcHalf is what one measured pass over the metacomputer workload yields.
type mcHalf struct {
	setup    float64 // seconds, median over set-ups including warm-up
	lat      samples // per-run latency, µs
	rate     float64 // correct runs per second
	longest  samples // traced: per-run longest root delegation, µs
	cpuPerOp float64
	liveHeap float64 // MB in use after the run, system still up
	out      outcome
	layers   layerVals
}

// runMetacomputerHalf sets the federation up (once if single), warms it,
// and keeps graphRunners payroll runs in flight for secs seconds.
func runMetacomputerHalf(seed int64, secs float64, traced bool, single bool) (*mcHalf, error) {
	h := &mcHalf{}
	runs := newRuns(seed, runStream)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(secs+60)*time.Second)
	defer cancel()
	var (
		s      *mcSystem
		builds []float64
	)
	for i := 0; moreSetups(i, builds, single); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = buildMetacomputer(seed, traced); err != nil {
			return nil, err
		}
		for k := 0; k < warmRuns; k++ {
			r := runs[len(runs)-1-k]
			got, _, err := s.root.Run(ctx, s.engine(s.cond), s.payroll, r.inputs)
			if err := checkGraph(r, got, err); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	defer s.close()
	h.setup = medianOf(builds)
	h.out.record(s.checkWipe(ctx))

	timers := make([]*delegTimer, graphRunners)
	engines := make([]*cg.Engine, graphRunners)
	for w := range engines {
		cond := s.cond
		if traced {
			timers[w] = &delegTimer{}
			cond = timers[w].wrap(cond)
		}
		engines[w] = s.engine(cond)
	}
	rootBefore, subBefore := s.rootTel.Snapshot(), s.subTel.Snapshot()
	probeBefore := map[string]systemCounts{}
	for k, p := range s.probes {
		probeBefore[k] = p.counts()
	}
	var wireBytes, wireWrites int64
	if s.wire != nil {
		wireBytes, wireWrites = s.wire.bytes.Load(), s.wire.writes.Load()
	}

	lats := make([]samples, graphRunners)
	doneAt := make([][]time.Duration, graphRunners)
	longest := make([]samples, graphRunners)
	outs := make([]outcome, graphRunners)
	start := time.Now()
	cpuc := make(chan []time.Duration, 1)
	go func() { cpuc <- sampleCPU(start, int(secs*float64(time.Second)/float64(rateWindow)), rateWindow) }()
	closedLoop(start.Add(time.Duration(secs*float64(time.Second))), graphRunners, func(w, seq int) {
		r := runs[seq%len(runs)]
		t0 := time.Now()
		got, _, err := s.root.Run(ctx, engines[w], s.payroll, r.inputs)
		d := time.Since(t0)
		err = checkGraph(r, got, err)
		outs[w].record(err)
		if err == nil {
			lats[w].add(d)
			doneAt[w] = append(doneAt[w], time.Since(start))
		}
		if traced {
			longest[w].add(timers[w].takeLongest())
		}
	})
	var at []time.Duration
	for w := range lats {
		h.lat = append(h.lat, lats[w]...)
		h.longest = append(h.longest, longest[w]...)
		h.out.add(&outs[w])
		at = append(at, doneAt[w]...)
	}
	h.cpuPerOp = cpuPerOp(<-cpuc, at, rateWindow)
	h.rate = windowRate(at, time.Duration(secs*float64(time.Second)), rateWindow)
	h.liveHeap = liveHeapMB()
	h.out.record(s.checkWipe(ctx))
	h.out.record(s.checkZ())

	if traced {
		var deleg samples
		for _, t := range timers {
			deleg = append(deleg, t.all...)
		}
		h.layers = metacomputerLayers(s, rootBefore, subBefore, probeBefore, wireBytes, wireWrites, deleg)
	}
	return h, nil
}

// metacomputerLayers derives the metacomputer's per-layer metrics.
func metacomputerLayers(s *mcSystem, rootBefore, subBefore telemetry.Snapshot, probeBefore map[string]systemCounts,
	wireBytes, wireWrites int64, deleg samples) layerVals {
	l := layerVals{}
	rootAfter, subAfter := s.rootTel.Snapshot(), s.subTel.Snapshot()
	ix := indexSpans(s.spans())

	l.median("webcom.delegate_us.p50", deleg, 1)
	l.p99("webcom.delegate_us.p99", deleg, 1)
	l.median("webcom.dispatch_us.p50", ix.byName["webcom.dispatch"], 1)
	l.median("webcom.execute_us.p50", ix.byName["client.execute"], 1)

	hits, ok1 := counterDelta(rootBefore, rootAfter, "authz.mint_cache.hits")
	misses, ok2 := counterDelta(rootBefore, rootAfter, "authz.mint_cache.misses")
	l.ratio("authz.mint_cache_hit_ratio", hits, hits+misses, ok1 || ok2)
	skips, ok3 := counterDelta(subBefore, subAfter, "authz.relint.skips")
	lints, ok4 := counterDelta(subBefore, subAfter, "authz.relint.lints")
	l.ratio("authz.relint_skip_ratio", skips, skips+lints, ok3 || ok4)
	refs, ok5 := counterDelta(rootBefore, rootAfter, "webcom.delegate.closure.refs")
	resends, ok6 := counterDelta(rootBefore, rootAfter, "webcom.delegate.closure.resends")
	l.ratio("webcom.closure_ref_ratio", refs, refs+resends, ok5 || ok6)

	var tasks, checks int
	var extracts samples
	for kind, p := range s.probes {
		inv, ext, chk := p.since(probeBefore[kind])
		l.median("middleware."+kind+".invoke_us.p50", inv, 1)
		tasks += len(inv)
		checks += chk
		extracts = append(extracts, ext...)
	}
	l.ratio("middleware.check_per_task", float64(checks), float64(tasks), true)
	l.ratio("middleware.extract_per_task", float64(len(extracts)), float64(tasks), true)
	l.median("middleware.extract_us.p50", extracts, 1)
	if s.wire != nil {
		l.ratio("wire.bytes_per_task", float64(s.wire.bytes.Load()-wireBytes), float64(tasks), true)
		l.ratio("wire.writes_per_task", float64(s.wire.writes.Load()-wireWrites), float64(tasks), true)
	}
	return l
}
