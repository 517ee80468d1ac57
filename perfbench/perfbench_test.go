package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"securewebcom/internal/cg"
)

func TestTailRankIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		pct     float64
	}{
		{n: 2000, rank: 1979, pct: 99},    // p99 with 20 beyond
		{n: 1000, rank: 989, pct: 99},     // p99 with exactly 10 beyond
		{n: 500, rank: 489, pct: 98},      // p99 would leave 5 beyond
		{n: 100, rank: 89, pct: 90},       // p90
		{n: 11, rank: 0, pct: 100.0 / 11}, // the minimum
		{n: 10, rank: -1},
	} {
		if got := tailRank(tc.n, 99); got != tc.rank {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, got, tc.rank)
			continue
		}
		if tc.rank < 0 {
			continue
		}
		s := make(samples, tc.n)
		for i := range s {
			s[tc.n-1-i] = float64(i) // reversed: tail must sort
		}
		v, pct, ok := s.tail(99)
		if !ok || v != float64(tc.rank) || pct != tc.pct {
			t.Errorf("n=%d: tail = %v at p%v (ok=%v), want %d at p%v", tc.n, v, pct, ok, tc.rank, tc.pct)
		}
		if beyond := tc.n - 1 - tc.rank; beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", tc.n, beyond)
		}
	}
	if _, _, ok := make(samples, 10).tail(99); ok {
		t.Error("10 samples yielded a tail percentile")
	}
}

func TestChunkedAndWindowRateResistBursts(t *testing.T) {
	s := make(samples, 5*chunkSize)
	for i := range s {
		s[i] = 100
	}
	for i := 0; i < chunkSize; i++ {
		s[i] = 10_000 // one whole chunk stalled
	}
	if got := s.p50c(); got != 100 {
		t.Errorf("chunked median = %v, want 100 despite one stalled chunk", got)
	}
	var at []time.Duration
	for sec := 0; sec < 5; sec++ {
		n := 1000
		if sec == 2 {
			n = 10 // a stalled second
		}
		for i := 0; i < n; i++ {
			at = append(at, time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond/2)
		}
	}
	if got := windowRate(at, 5*time.Second, time.Second); got != 1000 {
		t.Errorf("window rate = %v, want 1000 despite one stalled window", got)
	}
	// 1ms of CPU per window, except a 300ms burst in the stalled one.
	ms := time.Millisecond
	cpu := []time.Duration{0, 1 * ms, 2 * ms, 302 * ms, 303 * ms, 304 * ms}
	if got := cpuPerOp(cpu, at, time.Second); got != 1 {
		t.Errorf("CPU per op = %vµs, want 1µs despite one burst", got)
	}
}

func TestSetupRepeats(t *testing.T) {
	count := func(each float64, single bool) int {
		var done []float64
		for i := 0; moreSetups(i, done, single); i++ {
			done = append(done, each)
		}
		return len(done)
	}
	if n := count(0.01, true); n != 1 {
		t.Errorf("single: %d set-ups", n)
	}
	if n := count(2, false); n != minSetups {
		t.Errorf("slow set-ups: %d, want %d", n, minSetups)
	}
	if n := count(0.01, false); n != maxSetups {
		t.Errorf("fast set-ups: %d, want %d", n, maxSetups)
	}
}

func TestScheduleAndMerge(t *testing.T) {
	d := evenSchedule(4, 1000)
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("evenSchedule = %v, want %v", d, want)
	}
	rel := mergeSchedules(d, []time.Duration{time.Millisecond / 2, 5 * time.Millisecond})
	var lists []int
	for i, r := range rel {
		if i > 0 && r.due < rel[i-1].due {
			t.Fatalf("merged schedule out of order at %d: %v", i, rel)
		}
		lists = append(lists, r.list)
	}
	if !reflect.DeepEqual(lists, []int{0, 1, 0, 0, 0, 1}) {
		t.Errorf("merged lists = %v", lists)
	}
}

// A stalled operation must show up as queueing for the operations due
// behind it, timed from their due time, while the generator itself stays
// on time; and every operation runs exactly once.
func TestOpenLoopBooksStallsAsQueueing(t *testing.T) {
	const n, stall = 12, 30 * time.Millisecond
	rel := mergeSchedules(evenSchedule(n, 500), nil) // every 2ms
	var mu sync.Mutex
	ran := map[int]int{}
	st := openLoop(time.Now().Add(5*time.Millisecond), rel, []int{1}, func(_, i int) {
		mu.Lock()
		ran[i]++
		mu.Unlock()
		if i == 2 {
			time.Sleep(stall)
		}
	})
	for i := 0; i < n; i++ {
		if ran[i] != 1 {
			t.Errorf("operation %d ran %d times", i, ran[i])
		}
		if st.late[i] < 0 || st.queued[i] < st.late[i] {
			t.Errorf("operation %d: late %v, queued %v", i, st.late[i], st.queued[i])
		}
	}
	// Operation 3 is due 2ms after the stall began and waits for it.
	if st.queued[3] < stall-5*time.Millisecond {
		t.Errorf("operation behind the stall queued only %v", st.queued[3])
	}
	if st.queued[0] > 5*time.Millisecond {
		t.Errorf("first operation queued %v with an idle pool", st.queued[0])
	}
}

func TestClosedLoopNumbersEveryOperationOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	closedLoop(time.Now().Add(20*time.Millisecond), 2, func(_, seq int) {
		mu.Lock()
		if seen[seq] {
			t.Errorf("sequence %d issued twice", seq)
		}
		seen[seq] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	for i := range seen {
		if i >= len(seen) {
			t.Fatalf("sequence numbers not dense: %d of %d", i, len(seen))
		}
	}
}

func TestTrafficIsDeterministicPerSeed(t *testing.T) {
	a := newTraffic(7, 5000, 2000, 0.10)
	b := newTraffic(7, 5000, 2000, 0.10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traffic")
	}
	c := newTraffic(8, 5000, 2000, 0.10)
	if reflect.DeepEqual(a.open, c.open) {
		t.Fatal("different seeds produced the same stream")
	}

	var bulk, tail, out, single int
	for _, d := range a.open {
		if d.who >= hotPrincipals {
			tail++
		}
		bd := &a.bodies[d.body]
		if bd.bulk {
			bulk++
			continue
		}
		single++
		if !a.principals[d.who].grants(bd.queries[0].op) {
			out++
		}
	}
	n := float64(len(a.open))
	if f := float64(bulk) / n; f < 0.01 || f > 0.03 {
		t.Errorf("bulk share %.3f, want about 1/%d", f, bulkEvery)
	}
	if f := float64(tail) / n; f < 0.08 || f > 0.12 {
		t.Errorf("tail share %.3f, want about 0.10", f)
	}
	if f := float64(out) / float64(single); f < 0.03 || f > 0.07 {
		t.Errorf("out-of-scope share %.3f, want about %v", f, outOfScope)
	}
	if h := newTraffic(7, 5000, 0, 0); len(h.principals) != hotPrincipals {
		t.Errorf("hot-only traffic has %d principals, want %d", len(h.principals), hotPrincipals)
	}
}

func reply(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecideOracleCatchesWrongAnswers(t *testing.T) {
	tr := newTraffic(3, 0, 0, 0)
	p := &tr.principals[0]
	in, out := -1, -1
	for op := range decideOps {
		if p.grants(op) {
			in = op
		} else {
			out = op
		}
	}
	inBody := &tr.bodies[tr.singles[in*len(objects)]]
	outBody := &tr.bodies[tr.singles[out*len(objects)]]
	name := "jwt:" + p.sub
	type single struct {
		Allowed   bool   `json:"allowed"`
		Principal string `json:"principal"`
	}
	if err := checkDecide(p, inBody, reply(t, single{true, name})); err != nil {
		t.Fatalf("correct allow rejected: %v", err)
	}
	if err := checkDecide(p, outBody, reply(t, single{false, name})); err != nil {
		t.Fatalf("correct deny rejected: %v", err)
	}
	for what, raw := range map[string][]byte{
		"out-of-scope allowed": reply(t, single{true, name}),
		"wrong principal":      reply(t, single{false, "jwt:someone-else"}),
		"garbage":              []byte("{"),
	} {
		if err := checkDecide(p, outBody, raw); !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: oracle returned %v", what, err)
		}
	}
	if err := checkDecide(p, inBody, reply(t, single{false, name})); !errors.Is(err, errWrongAnswer) {
		t.Errorf("in-scope denied: oracle returned %v", err)
	}

	bb := &tr.bodies[tr.warm]
	type dec struct {
		Allowed bool `json:"allowed"`
	}
	ds := make([]dec, len(bb.queries))
	for i, q := range bb.queries {
		ds[i].Allowed = p.grants(q.op)
	}
	bulk := func() []byte {
		return reply(t, map[string]any{"principal": name, "decisions": ds})
	}
	if err := checkDecide(p, bb, bulk()); err != nil {
		t.Fatalf("correct bulk rejected: %v", err)
	}
	ds[out*len(objects)].Allowed = true // one widened verdict in the batch
	if err := checkDecide(p, bb, bulk()); !errors.Is(err, errWrongAnswer) {
		t.Errorf("widened bulk verdict: oracle returned %v", err)
	}
	ds = ds[:len(ds)-1]
	if err := checkDecide(p, bb, bulk()); !errors.Is(err, errWrongAnswer) {
		t.Errorf("short bulk reply: oracle returned %v", err)
	}
}

func TestRecoveryOracleCatchesLostCommit(t *testing.T) {
	seed := seeded{seq: 5, rows: 100_001}
	if err := checkRecovered(recovery{seq: 15, rows: 100_011}, seed, 10); err != nil {
		t.Fatalf("exact recovery rejected: %v", err)
	}
	for _, r := range []recovery{{seq: 14, rows: 100_010}, {seq: 15, rows: 100_010}, {seq: 16, rows: 100_012}} {
		if err := checkRecovered(r, seed, 10); !errors.Is(err, errWrongAnswer) {
			t.Errorf("recovery %+v: oracle returned %v", r, err)
		}
	}
}

// The real federation passes every metacomputer oracle, and each oracle
// fails once a wrong answer is injected.
func TestMetacomputerOracles(t *testing.T) {
	s, err := buildMetacomputer(1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	r := newRuns(1, 1)[0]
	got, _, err := s.root.Run(ctx, s.engine(s.cond), s.payroll, r.inputs)
	if err := checkGraph(r, got, err); err != nil {
		t.Fatalf("payroll run: %v", err)
	}
	if err := checkGraph(graphRun{want: r.want + "1"}, got, nil); !errors.Is(err, errWrongAnswer) {
		t.Errorf("wrong payroll: oracle returned %v", err)
	}
	if err := s.checkWipe(ctx); err != nil {
		t.Fatalf("wipe oracle on the real system: %v", err)
	}
	if err := s.checkZ(); err != nil {
		t.Fatalf("Z oracle on the real system: %v", err)
	}

	s.zRuns.Add(1)
	if err := s.checkZ(); !errors.Is(err, errWrongAnswer) {
		t.Errorf("Z executed: oracle returned %v", err)
	}
	harmless := cg.NewGraph("harmless")
	harmless.MustAddNode("n", cg.Add())
	if err := harmless.SetConst("n", 0, "1"); err != nil {
		t.Fatal(err)
	}
	if err := harmless.SetConst("n", 1, "2"); err != nil {
		t.Fatal(err)
	}
	if err := harmless.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	s.wipe = harmless // a "wipe" the system lets through
	if err := s.checkWipe(ctx); !errors.Is(err, errWrongAnswer) {
		t.Errorf("unrefused wipe: oracle returned %v", err)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// and workloads this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
