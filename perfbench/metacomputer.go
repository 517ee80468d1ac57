package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/middleware/corba"
	"securewebcom/internal/middleware/ejb"
	"securewebcom/internal/ossec"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/webcom"
)

// The metacomputer workload: the paper's Fig. 3 payroll application
// (examples/metacomputer) scaled to departments and two tiers. The root
// master delegates one condensed "dept" subgraph per department to a
// sub-master S, which schedules Salaries.read (EJB on X, partial
// specification by Role), Payroll.bonus (CORBA on Y) and Audit.Access
// (COM+ on W) and adds locally; client Z is connected to S but
// authorised for nothing and must never execute anything.

const (
	departments = 4
	employees   = 64
	// graphRunners is the number of graph runs kept in flight.
	graphRunners = 2
	// warmRuns graph runs fill the delegation caches before timing.
	warmRuns = 20
	// runStream is the length of the pre-generated run-input stream.
	runStream = 10_000
)

func salary(emp int) int64 { return 40_000 + 250*int64(emp) }
func bonus(emp int) int64  { return 1_000 + 37*int64(emp) }

func empName(i int) string { return fmt.Sprintf("emp-%02d", i) }

func empIndex(name string) (int, error) {
	var i int
	if _, err := fmt.Sscanf(name, "emp-%d", &i); err != nil || i < 0 || i >= employees {
		return 0, fmt.Errorf("unknown employee %q", name)
	}
	return i, nil
}

// graphRun is one run's inputs and the analytic payroll it must yield.
type graphRun struct {
	inputs map[string]string
	want   string
}

// newRuns derives n runs from seed: one employee per department.
func newRuns(seed int64, n int) []graphRun {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]graphRun, n)
	for i := range runs {
		in := make(map[string]string, departments)
		var total int64
		for d := 0; d < departments; d++ {
			e := rng.Intn(employees)
			in["e"+strconv.Itoa(d)] = empName(e)
			total += salary(e) + bonus(e)
		}
		runs[i] = graphRun{inputs: in, want: strconv.FormatInt(total, 10)}
	}
	return runs
}

// checkGraph is the graph oracle: a run must return its analytic result.
func checkGraph(r graphRun, got string, err error) error {
	if err != nil {
		return err
	}
	if got != r.want {
		return fmt.Errorf("%w: payroll %s, want %s", errWrongAnswer, got, r.want)
	}
	return nil
}

// mcSystem is the two-tier federation and its leaves.
type mcSystem struct {
	root    *webcom.Master
	rootTel *telemetry.Registry
	subTel  *telemetry.Registry
	zTel    *telemetry.Registry
	subM    *webcom.Master
	clients []*webcom.Client // S last, so closing runs leaves first
	tracers []*telemetry.Tracer
	lib     *cg.Library
	payroll *cg.Graph
	wipe    *cg.Graph
	cond    cg.Condenser

	zRuns atomic.Int64 // anything client Z executed
	wipes atomic.Int64 // Salaries.wipe executions

	// Traced only.
	probes map[string]*systemProbe // by middleware kind
	wire   *wireProbe
}

// Traced span windows. A payroll run leaves about 73 spans on the
// sub-master's tracer and at most 16 on any other; at ~900 runs/s these
// windows keep about the last second of the traced phase, which is what
// the span medians are taken over. Holding a whole 10-second phase would
// take about a million spans.
const (
	subSpanWindow  = 60_000
	tierSpanWindow = 15_000
)

// buildMetacomputer assembles the federation over loopback TCP.
func buildMetacomputer(seed int64, traced bool) (*mcSystem, error) {
	s := &mcSystem{rootTel: telemetry.NewRegistry(), subTel: telemetry.NewRegistry(), zTel: telemetry.NewRegistry()}
	if traced {
		s.probes = map[string]*systemProbe{}
		s.wire = &wireProbe{}
	}
	tracer := func(window int) *telemetry.Tracer {
		if !traced {
			window = 0 // the tracer's default ring
		}
		t := telemetry.NewTracer(window)
		s.tracers = append(s.tracers, t)
		return t
	}
	ks := keys.NewKeyStore()
	kseed := "perfbench-mc-" + strconv.FormatInt(seed, 10)
	rootKey := keys.Deterministic("Kroot", kseed)
	subKey := keys.Deterministic("KS", kseed)
	leafKey := map[string]*keys.KeyPair{}
	for _, n := range []string{"X", "Y", "W", "Z"} {
		leafKey[n] = keys.Deterministic("K"+n, kseed)
		ks.Add(leafKey[n])
	}
	ks.Add(rootKey)
	ks.Add(subKey)
	trusts := func(k *keys.KeyPair, cond string) (*keynote.Checker, error) {
		return keynote.NewChecker([]*keynote.Assertion{keynote.MustNew("POLICY", fmt.Sprintf("%q", k.PublicID()), cond)},
			keynote.WithResolver(ks))
	}
	listen := func(m *webcom.Master) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if s.wire != nil {
			ln = s.wire.listener(ln)
		}
		m.Serve(ln)
		return nil
	}
	dial := func(cl *webcom.Client, addr string) error {
		if s.wire != nil {
			cl.Dial = s.wire.dial
		}
		if err := cl.Connect(addr); err != nil {
			return err
		}
		s.clients = append(s.clients, cl)
		return nil
	}
	fail := func(err error) (*mcSystem, error) {
		s.close()
		return nil, err
	}

	// Root: trusts the sub-master for every WebCom operation.
	rootChk, err := trusts(subKey, `app_domain=="WebCom";`)
	if err != nil {
		return nil, err
	}
	s.root = webcom.NewMaster(rootKey, rootChk, nil, ks)
	s.root.Tel, s.root.Tracer = s.rootTel, tracer(tierSpanWindow)
	if err := listen(s.root); err != nil {
		return fail(err)
	}

	// Sub-master: pins each operation to the client hosting its
	// middleware, as the example's master does. Z gets nothing.
	subPolicy := []*keynote.Assertion{
		keynote.MustNew("POLICY", fmt.Sprintf("%q", leafKey["X"].PublicID()), `app_domain=="WebCom" && operation=="Salaries.read";`),
		keynote.MustNew("POLICY", fmt.Sprintf("%q", leafKey["Y"].PublicID()), `app_domain=="WebCom" && operation=="Payroll.bonus";`),
		keynote.MustNew("POLICY", fmt.Sprintf("%q", leafKey["W"].PublicID()), `app_domain=="WebCom" && operation=="Audit.Access";`),
	}
	subChk, err := keynote.NewChecker(subPolicy, keynote.WithResolver(ks))
	if err != nil {
		return fail(err)
	}
	s.subM = webcom.NewMaster(subKey, subChk, nil, ks)
	s.subM.Tel, s.subM.Tracer = s.subTel, tracer(subSpanWindow)
	if err := listen(s.subM); err != nil {
		return fail(err)
	}

	leafChk := func() (*keynote.Checker, error) { return trusts(subKey, `app_domain=="WebCom";`) }
	register := func(sys middleware.System, kind string) (*middleware.Registry, error) {
		if s.probes != nil {
			p := &systemProbe{System: sys}
			s.probes[kind] = p
			sys = p
		}
		reg := middleware.NewRegistry()
		return reg, reg.Register(sys)
	}
	leaf := func(name string, reg *middleware.Registry, local map[string]func([]string) (string, error), tel *telemetry.Registry) error {
		chk, err := leafChk()
		if err != nil {
			return err
		}
		if tel == nil {
			tel = telemetry.NewRegistry()
		}
		cl := &webcom.Client{Name: name, Key: leafKey[name], Checker: chk, Registry: reg, Local: local, Tel: tel, Tracer: tracer(tierSpanWindow)}
		return dial(cl, s.subM.Addr())
	}

	// X: EJB. Salaries.read returns the employee's salary; wipe exists
	// only to prove it never runs.
	ejbSrv := ejb.NewServer("ejbX", "hostX", "srv")
	fin := ejbSrv.CreateContainer("finance")
	fin.DeployBean("Salaries", map[string]middleware.Handler{
		"read": func(args []string) (string, error) {
			e, err := empIndex(args[0])
			if err != nil {
				return "", err
			}
			return strconv.FormatInt(salary(e), 10), nil
		},
		"wipe": func([]string) (string, error) {
			s.wipes.Add(1)
			return "wiped", nil
		},
	}, "read", "wipe")
	fin.AddMethodPermission("Manager", "Salaries", "read")
	ejbSrv.AddUser("Bob")
	if err := ejbSrv.AssignRole("finance", "Bob", "Manager"); err != nil {
		return fail(err)
	}
	regX, err := register(ejbSrv, "ejb")
	if err != nil {
		return fail(err)
	}
	if err := leaf("X", regX, nil, nil); err != nil {
		return fail(err)
	}

	// Y: CORBA.
	orb := corba.NewORB("orbY", "hostY", "PayrollORB")
	orb.DefineInterface("Payroll", "bonus")
	if err := orb.BindObject("payroll", "Payroll", map[string]middleware.Handler{
		"bonus": func(args []string) (string, error) {
			e, err := empIndex(args[0])
			if err != nil {
				return "", err
			}
			return strconv.FormatInt(bonus(e), 10), nil
		},
	}); err != nil {
		return fail(err)
	}
	orb.GrantRole("Manager", "Payroll", "bonus")
	orb.AddPrincipalToRole("Bob", "Manager")
	regY, err := register(orb, "corba")
	if err != nil {
		return fail(err)
	}
	if err := leaf("Y", regY, nil, nil); err != nil {
		return fail(err)
	}

	// W: COM+. Audit.Access passes the department total through.
	nt := ossec.NewNTDomain("CORP")
	nt.AddAccount("Bob")
	cat := complus.NewCatalogue("comW", nt)
	cat.RegisterClass("Audit", map[string]middleware.Handler{
		complus.PermAccess: func(args []string) (string, error) { return args[0], nil },
	})
	if err := cat.Grant("Auditors", "Audit", complus.PermAccess); err != nil {
		return fail(err)
	}
	if err := cat.AddRoleMember("Auditors", "Bob"); err != nil {
		return fail(err)
	}
	regW, err := register(cat, "complus")
	if err != nil {
		return fail(err)
	}
	if err := leaf("W", regW, nil, nil); err != nil {
		return fail(err)
	}

	// Z: authenticated, authorised for nothing, able to run everything —
	// so any scheduling breach would show as an execution.
	zLocal := map[string]func([]string) (string, error){}
	for _, op := range []string{"Salaries.read", "Salaries.wipe", "Payroll.bonus", "Audit.Access"} {
		zLocal[op] = func([]string) (string, error) {
			s.zRuns.Add(1)
			return "0", nil
		}
	}
	if err := leaf("Z", nil, zLocal, s.zTel); err != nil {
		return fail(err)
	}

	// S: the sub-master's client half, trusting the root.
	sChk, err := trusts(rootKey, `app_domain=="WebCom";`)
	if err != nil {
		return fail(err)
	}
	sub := &webcom.Client{Name: "S", Key: subKey, Checker: sChk, Sub: s.subM, Tel: s.subTel, Tracer: tracer(tierSpanWindow)}
	if err := waitClients(s.subM, 4); err != nil {
		return fail(err)
	}
	if err := dial(sub, s.root.Addr()); err != nil {
		return fail(err)
	}
	if err := waitClients(s.root, 1); err != nil {
		return fail(err)
	}

	if s.lib, s.payroll, s.wipe, err = payrollGraphs(); err != nil {
		return fail(err)
	}
	s.cond = s.root.Condenser(s.lib)
	return s, nil
}

func waitClients(m *webcom.Master, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for len(m.Clients()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d clients connected", len(m.Clients()), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// payrollGraphs builds the library (dept), the root payroll graph over
// departments, and the graph that asks for Salaries.wipe.
func payrollGraphs() (*cg.Library, *cg.Graph, *cg.Graph, error) {
	var errs []error
	must := func(err error) { errs = append(errs, err) }

	dept := cg.NewGraph("dept")
	read := dept.MustAddNode("read", &cg.Opaque{OpName: "Salaries.read", OpArity: 1})
	read.Annotations["Domain"] = "hostX/srv/finance"
	read.Annotations["Role"] = "Manager" // partial specification: any authorised user
	bon := dept.MustAddNode("bonus", &cg.Opaque{OpName: "Payroll.bonus", OpArity: 1})
	bon.Annotations["Domain"] = "hostY/PayrollORB"
	bon.Annotations["User"] = "Bob"
	dept.MustAddNode("total", cg.Add())
	audit := dept.MustAddNode("audit", &cg.Opaque{OpName: "Audit.Access", OpArity: 1})
	audit.Annotations["Domain"] = "CORP"
	audit.Annotations["User"] = "Bob"
	must(dept.BindInput("emp", "read", 0))
	must(dept.BindInput("emp", "bonus", 0))
	must(dept.Connect("read", "total", 0))
	must(dept.Connect("bonus", "total", 1))
	must(dept.Connect("total", "audit", 0))
	must(dept.SetExit("audit"))
	lib := cg.NewLibrary()
	must(lib.Define(dept))

	g := cg.NewGraph("payroll")
	var sums []string
	for d := 0; d < departments; d++ {
		id := "dept" + strconv.Itoa(d)
		g.MustAddNode(id, &cg.Condensed{GraphName: "dept", ArityHint: 1})
		must(g.BindInput("e"+strconv.Itoa(d), id, 0))
		sums = append(sums, id)
	}
	for len(sums) > 1 {
		id := "sum-" + sums[0] + "-" + sums[1]
		g.MustAddNode(id, cg.Add())
		must(g.Connect(sums[0], id, 0))
		must(g.Connect(sums[1], id, 1))
		sums = append(sums[2:], id)
	}
	must(g.SetExit(sums[0]))

	wipe := cg.NewGraph("forbidden")
	n := wipe.MustAddNode("n", &cg.Opaque{OpName: "Salaries.wipe", OpArity: 0})
	n.Annotations["Domain"] = "hostX/srv/finance"
	n.Annotations["User"] = "Bob"
	must(wipe.SetExit("n"))
	return lib, g, wipe, errors.Join(errs...)
}

// engine returns a cg engine for one runner. Each runner owns one, since
// Master.Run fills unset engine fields in place.
func (s *mcSystem) engine(cond cg.Condenser) *cg.Engine {
	return &cg.Engine{Library: s.lib, Workers: 4, Exec: s.root.Executor(), Condenser: cond, Tel: s.rootTel}
}

// checkWipe is the refusal oracle: the Salaries.wipe graph must be
// refused and nothing may have executed it.
func (s *mcSystem) checkWipe(ctx context.Context) error {
	_, _, err := s.root.Run(ctx, s.engine(s.cond), s.wipe, nil)
	if err == nil {
		return fmt.Errorf("%w: Salaries.wipe graph was not refused", errWrongAnswer)
	}
	if n := s.wipes.Load(); n != 0 {
		return fmt.Errorf("%w: Salaries.wipe executed %d times", errWrongAnswer, n)
	}
	return nil
}

// checkZ is the scheduling oracle: client Z must have executed nothing.
func (s *mcSystem) checkZ() error {
	execs := s.zTel.Snapshot().Counters["webcom.client.executions"]
	if n := s.zRuns.Load(); n != 0 || execs != 0 {
		return fmt.Errorf("%w: untrusted client Z executed %d operations (%d scheduled)", errWrongAnswer, n, execs)
	}
	return nil
}

func (s *mcSystem) close() {
	for i := len(s.clients) - 1; i >= 0; i-- {
		s.clients[i].Close()
	}
	if s.subM != nil {
		s.subM.Close()
	}
	if s.root != nil {
		s.root.Close()
	}
}

// spans returns every tier's finished spans.
func (s *mcSystem) spans() []telemetry.Span {
	var all []telemetry.Span
	for _, t := range s.tracers {
		all = append(all, t.Spans()...)
	}
	return all
}

// delegTimer wraps a runner's Condenser, timing each root delegation
// and keeping the longest of the current run: the run's critical path
// through the sub-master tier.
type delegTimer struct {
	mu      sync.Mutex
	all     samples
	longest time.Duration
}

func (d *delegTimer) wrap(c cg.Condenser) cg.Condenser {
	return func(ctx context.Context, t cg.Task, op *cg.Condensed, inputs map[string]string) (string, cg.Stats, bool, error) {
		start := time.Now()
		res, st, handled, err := c(ctx, t, op, inputs)
		dur := time.Since(start)
		d.mu.Lock()
		d.all.add(dur)
		d.longest = max(d.longest, dur)
		d.mu.Unlock()
		return res, st, handled, err
	}
}

// takeLongest returns and resets the longest delegation of the run.
func (d *delegTimer) takeLongest() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.longest
	d.longest = 0
	return l
}
