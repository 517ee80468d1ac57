package main

import (
	"strconv"
	"strings"
	"time"

	"securewebcom/internal/telemetry"
)

// layerVals collects per-layer values; a metric never set is reported
// absent (value 0, named in the report's "absent" list).
type layerVals map[string]float64

// ratio sets name to num/den when den > 0 and the counters exist.
func (l layerVals) ratio(name string, num, den float64, ok bool) {
	if ok && den > 0 {
		l[name] = num / den
	}
}

// median/p99 set name from s when it has samples (scale divides µs).
func (l layerVals) median(name string, s samples, scale float64) {
	if len(s) > 0 {
		l[name] = s.median() / scale
	}
}

func (l layerVals) p99(name string, s samples, scale float64) {
	if v, _, ok := s.tail(99); ok {
		l[name] = v / scale
	}
}

// spanIndex groups a tracer's spans by name and by trace.
type spanIndex struct {
	byName  map[string]samples
	byTrace map[string][]telemetry.Span
}

func indexSpans(spans []telemetry.Span) spanIndex {
	ix := spanIndex{byName: map[string]samples{}, byTrace: map[string][]telemetry.Span{}}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.End.IsZero() || seen[s.SpanID] {
			continue
		}
		seen[s.SpanID] = true
		d := ix.byName[s.Name]
		d.add(s.End.Sub(s.Start))
		ix.byName[s.Name] = d
		ix.byTrace[s.TraceID] = append(ix.byTrace[s.TraceID], s)
	}
	return ix
}

// prefixTime sums the durations of a trace's spans whose name starts
// with prefix.
func (ix spanIndex) prefixTime(traceID, prefix string) time.Duration {
	var t time.Duration
	for _, s := range ix.byTrace[traceID] {
		if strings.HasPrefix(s.Name, prefix) {
			t += s.End.Sub(s.Start)
		}
	}
	return t
}

// gatewayLayers derives the gateway workloads' per-layer metrics from
// the probes, the tracer's spans and the registry's counters, over the
// measured phases (before is the registry after warm-up).
func gatewayLayers(sys *gwSystem, before telemetry.Snapshot, disk0 diskCounts, h *gwHalf, tr *traffic, service []time.Duration, errs []error) (layerVals, *breakdown) {
	l := layerVals{}
	after := sys.tel.Snapshot()
	ix := indexSpans(sys.tracer.Spans())

	var handler, self, wire samples
	for i, d := range tr.open {
		if errs[i] != nil || tr.bodies[d.body].bulk {
			continue
		}
		hd, ok := sys.handler.get("o" + strconv.Itoa(i))
		if !ok {
			continue
		}
		handler.add(hd.dur)
		self.add(hd.dur - ix.prefixTime(hd.traceID, "authz."))
		wire.add(service[i] - hd.dur)
	}
	// The end-to-end median is a closed-loop decide: split it into the
	// client and wire, the gateway's own work, and the authz engine.
	var cWire, cSelf, cAuthz samples
	for _, sd := range h.closedSent {
		hd, ok := sys.handler.get("c" + strconv.Itoa(sd.seq))
		if !ok {
			continue
		}
		a := ix.prefixTime(hd.traceID, "authz.")
		cWire.add(sd.took - hd.dur)
		cSelf.add(hd.dur - a)
		cAuthz.add(a)
	}
	parts := &breakdown{Metric: "latency_p50_us", Total: h.closedLat.p50c(), Parts: []part{
		{"client and wire", cWire.median()},
		{"gateway.self", cSelf.median()},
		{"authz", cAuthz.median()},
	}}
	parts.withRemainder("remainder (medians do not add exactly)")
	l.median("gateway.handler_us.p50", handler, 1)
	l.p99("gateway.handler_us.p99", handler, 1)
	l.median("gateway.self_us.p50", self, 1)
	l.median("gateway.wire_us.p50", wire, 1)
	l.p99("loadgen.queue_us.p99", h.queued, 1)
	l.p99("loadgen.late_us.p99", h.late, 1)

	var sheds float64
	for name := range after.Counters {
		if strings.HasPrefix(name, "gateway.shed.") {
			d, _ := counterDelta(before, after, name)
			sheds += d
		}
	}
	l["gateway.sheds"] = sheds

	mints, okM := counterDelta(before, after, "gateway.bridge.mints")
	mintHits, okH := counterDelta(before, after, "gateway.bridge.mint_hits")
	l.ratio("jwtbridge.mint_miss_ratio", mints, mints+mintHits, okM || okH)
	l.ratio("jwtbridge.mints_per_commit", mints, float64(h.acked), true)

	hits, okCH := counterDelta(before, after, "authz.cache.hits")
	misses, okCM := counterDelta(before, after, "authz.cache.misses")
	if okCM {
		l["authz.decide_misses"] = misses
	}
	l.ratio("authz.cache_hit_ratio", hits, hits+misses, okCH || okCM)
	decides, okD := counterDelta(before, after, "gateway.decides")
	compiles, okC := counterDelta(before, after, "authz.compile.sessions")
	l.ratio("authz.session_compiles_per_1k", 1000*compiles, decides, okD && okC)
	if inv, ok := counterDelta(before, after, "authz.cache.invalidations"); ok || h.acked == 0 {
		l["authz.invalidations"] = inv
	}
	l.median("authz.decide_miss_us.p50", ix.byName["authz.decide"], 1)
	l.median("authz.bulk_us.p50", ix.byName["authz.decide.bulk"], 1)
	mcHits, ok1 := counterDelta(before, after, "authz.mint_cache.hits")
	mcMiss, ok2 := counterDelta(before, after, "authz.mint_cache.misses")
	l.ratio("authz.mint_cache_hit_ratio", mcHits, mcHits+mcMiss, ok1 || ok2)

	l.median("keycom.apply_ms.p50", ix.byName["keycom.apply"], 1000)
	l.p99("keycom.apply_ms.p99", ix.byName["keycom.apply"], 1000)
	if sys.disk != nil && h.acked > 0 {
		c := sys.disk.counts()
		fsyncs, snaps := sys.disk.since(disk0)
		l["disk.fsyncs_per_commit"] = float64(c.fsyncs-disk0.fsyncs) / float64(h.acked)
		l["disk.bytes_per_commit"] = float64(c.bytes-disk0.bytes) / float64(h.acked)
		l.median("disk.fsync_us.p50", fsyncs, 1)
		l["disk.snapshots"] = float64(len(snaps))
		l.median("disk.snapshot_ms.p50", snaps, 1000)
	}
	return l, parts
}
