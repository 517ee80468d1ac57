// Command perfbench is the repository's end-to-end benchmark. It builds
// the system in-process — the authzd front door (gateway, JWT bridge,
// authz engine, KeyCOM plane on a durable store) or the Secure WebCom
// metacomputer (root master, sub-master, EJB/CORBA/COM+ clients) —
// drives one workload at it from this process, checks every answer
// against an oracle, and prints its metrics.
//
// Usage:
//
//	bash perfbench/run.sh --workload gateway-hot --seed 1 --seconds 20 --trace 0
//
// Workloads: gateway-hot, gateway-churn, metacomputer. With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1
// the run measures half its time untraced and half traced (probes on,
// tracer window holding the run) and carries the per-layer metrics.
// The line before it is a report with the host fingerprint, every
// metric under the names the workload design uses, the per-layer
// breakdown of the end-to-end median, and which counters were absent.
// The exit status is 1 on any oracle mismatch or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of either system sees, defined on
// every workload and taken from its closed-loop phase, where load keeps
// both cores busy: latency is the median of one operation (a decide on
// the gateway workloads, a payroll graph run on metacomputer),
// cpu_us_per_op the process's CPU time per completed operation, and
// live_heap_mb the memory the running system retains.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. The first block holds the
// end-to-end figures that are either defined on some workloads only or
// too noisy on a shared 2-core host to bound (open-loop latency, tails,
// rates); they come from the run's untraced half.
var perLayer = []metricDef{
	{"latency_p99_us", "us"},
	{"throughput_per_s", "1/s"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"bulk_p50_us", "us"},
	{"bulk_p99_us", "us"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"recover_s", "s"},
	{"error_ratio", "ratio"},
	{"peak_rss_mb", "MB"},

	{"gateway.handler_us.p50", "us"},
	{"gateway.handler_us.p99", "us"},
	{"gateway.self_us.p50", "us"},
	{"gateway.wire_us.p50", "us"},
	{"loadgen.queue_us.p99", "us"},
	{"loadgen.late_us.p99", "us"},
	{"gateway.sheds", "count"},
	{"jwtbridge.mint_miss_ratio", "ratio"},
	{"jwtbridge.mints_per_commit", "count"},
	{"authz.decide_misses", "count"},
	{"authz.decide_miss_us.p50", "us"},
	{"authz.cache_hit_ratio", "ratio"},
	{"authz.session_compiles_per_1k", "count"},
	{"authz.bulk_us.p50", "us"},
	{"authz.invalidations", "count"},
	{"keycom.apply_ms.p50", "ms"},
	{"keycom.apply_ms.p99", "ms"},
	{"disk.fsyncs_per_commit", "count"},
	{"disk.fsync_us.p50", "us"},
	{"disk.bytes_per_commit", "B"},
	{"disk.snapshots", "count"},
	{"disk.snapshot_ms.p50", "ms"},
	{"keycom.recover_replayed", "count"},
	{"webcom.delegate_us.p50", "us"},
	{"webcom.delegate_us.p99", "us"},
	{"webcom.dispatch_us.p50", "us"},
	{"webcom.execute_us.p50", "us"},
	{"authz.mint_cache_hit_ratio", "ratio"},
	{"authz.relint_skip_ratio", "ratio"},
	{"webcom.closure_ref_ratio", "ratio"},
	{"middleware.ejb.invoke_us.p50", "us"},
	{"middleware.corba.invoke_us.p50", "us"},
	{"middleware.complus.invoke_us.p50", "us"},
	{"middleware.check_per_task", "count"},
	{"middleware.extract_per_task", "count"},
	{"middleware.extract_us.p50", "us"},
	{"wire.bytes_per_task", "B"},
	{"wire.writes_per_task", "count"},
	{"trace.overhead_pct", "%"},
}

// designNames are the end-to-end figures under the names the workload
// design uses, reported where the workload defines them.
var designNames = map[string]string{
	"setup_s": "s", "decide_p50_us": "us", "decide_p99_us": "us", "bulk_p50_us": "us", "bulk_p99_us": "us",
	"decide_capacity_rps": "1/s", "commit_p50_ms": "ms", "commit_p99_ms": "ms", "recover_s": "s",
	"graph_runs_per_s": "1/s", "graph_p50_ms": "ms", "graph_p99_ms": "ms", "error_ratio": "ratio", "peak_rss_mb": "MB",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type part struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type breakdown struct {
	Metric string  `json:"metric"`
	Total  float64 `json:"total"`
	Parts  []part  `json:"parts"`
}

// withRemainder appends the named remainder that makes parts sum to total.
func (b *breakdown) withRemainder(name string) {
	rest := b.Total
	for _, p := range b.Parts {
		rest -= p.Value
	}
	b.Parts = append(b.Parts, part{Name: name, Value: rest})
}

type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Host       map[string]string `json:"host"`
	ByName     map[string]metric `json:"by_design_name"`
	Breakdown  *breakdown        `json:"breakdown,omitempty"`
	Absent     []string          `json:"absent,omitempty"`
	FirstError string            `json:"first_error,omitempty"`
}

var workloadNames = []string{"gateway-hot", "gateway-churn", "metacomputer"}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "gateway-hot, gateway-churn or metacomputer")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory (a per-process subdirectory is removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	work := filepath.Join(*workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o700); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	rep := &report{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: hostInfo(work), ByName: map[string]metric{}}
	res, err := runWorkload(rep, *workload, *seed, float64(*seconds), *trace == 1, work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(map[string]*report{"perfbench": rep})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: oracle mismatch:", rep.FirstError)
		return 1
	}
	return 0
}

// runWorkload measures one workload and fills rep. Untraced, it runs
// the workload once for secs seconds; traced, it runs secs/2 untraced
// (the baseline for trace.overhead_pct) and secs/2 traced.
func runWorkload(rep *report, name string, seed int64, secs float64, traced bool, work string) (*result, error) {
	var (
		out    outcome
		e2e    = map[string]float64{}
		layers = layerVals{}
	)
	// set records a figure in the report under the design's name and, as
	// a per-layer metric, when the traced run defines one of that name.
	set := func(n string, v float64) {
		rep.ByName[n] = metric{Value: v, Unit: designNames[n]}
		layers[n] = v
	}
	half := secs
	if traced {
		half = secs / 2
	}

	if name == "metacomputer" {
		u, err := runMetacomputerHalf(seed, half, false, traced)
		if err != nil {
			return nil, err
		}
		out.add(&u.out)
		e2e["setup_s"] = u.setup
		e2e["latency_p50_us"] = u.lat.p50c()
		e2e["cpu_us_per_op"] = u.cpuPerOp
		e2e["live_heap_mb"] = u.liveHeap
		layers["latency_p99_us"] = u.lat.p99c()
		layers["throughput_per_s"] = u.rate
		set("graph_p50_ms", u.lat.p50c()/1000)
		set("graph_p99_ms", u.lat.p99c()/1000)
		set("graph_runs_per_s", u.rate)
		if traced {
			t, err := runMetacomputerHalf(seed, half, true, true)
			if err != nil {
				return nil, err
			}
			out.add(&t.out)
			for k, v := range t.layers {
				layers[k] = v
			}
			layers["trace.overhead_pct"] = overheadPct(t.lat.p50c(), u.lat.p50c())
			rep.Breakdown = &breakdown{Metric: "latency_p50_us", Total: t.lat.p50c(),
				Parts: []part{{"webcom.delegate (longest per run)", t.longest.median()}}}
			rep.Breakdown.withRemainder("root engine and scheduling")
		}
	} else {
		w := gwWorkloads[name]
		u, err := runGatewayHalf(w, seed, half, false, work, traced)
		if err != nil {
			return nil, err
		}
		out.add(&u.out)
		e2e["setup_s"] = u.setup
		e2e["latency_p50_us"] = u.closedLat.p50c()
		e2e["cpu_us_per_op"] = u.cpuPerOp
		e2e["live_heap_mb"] = u.liveHeap
		layers["latency_p99_us"] = u.closedLat.p99c()
		layers["throughput_per_s"] = u.capacity
		set("decide_p50_us", u.singles.p50c())
		set("decide_p99_us", u.singles.p99c())
		set("bulk_p50_us", u.bulks.median())
		set("bulk_p99_us", u.bulks.p99())
		set("decide_capacity_rps", u.capacity)
		if w.commitRate > 0 {
			set("commit_p50_ms", u.commits.median()/1000)
			set("commit_p99_ms", u.commits.p99()/1000)
			set("recover_s", u.recover.median())
		}
		if traced {
			t, err := runGatewayHalf(w, seed, half, true, work, true)
			if err != nil {
				return nil, err
			}
			out.add(&t.out)
			for k, v := range t.layers {
				layers[k] = v
			}
			if w.commitRate > 0 {
				layers["keycom.recover_replayed"] = float64(t.replayed)
			}
			layers["trace.overhead_pct"] = overheadPct(t.closedLat.p50c(), u.closedLat.p50c())
			rep.Breakdown = t.parts
		}
	}
	set("setup_s", e2e["setup_s"])
	set("peak_rss_mb", peakRSSMB())
	set("error_ratio", float64(out.failed)/float64(max(out.attempted, 1)))
	if out.firstErr != nil {
		rep.FirstError = out.firstErr.Error()
	}

	res := &result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			rep.Absent = append(rep.Absent, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	sort.Strings(rep.Absent)
	return res, nil
}

func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
