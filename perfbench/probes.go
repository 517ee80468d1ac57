package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/middleware"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// Probes time calls into the program through wrappers its public APIs
// already accept: an http.Handler around the gateway, a faultfs.FS under
// the KeyCOM store, middleware.System values in the leaf registries, and
// net.Conn/net.Listener on the dispatch plane. None of them changes what
// the program does; the traced run installs them, the untraced run does
// not.

// seqHeader carries the benchmark's request number to the handler probe,
// which keys its timing by it. The gateway ignores unknown headers.
const seqHeader = "X-Perfbench-Seq"

// handled is one request as the handler probe saw it.
type handled struct {
	dur     time.Duration
	traceID string
}

// handlerProbe times gateway.Server.ServeHTTP and opens a benchmark span
// around it, so every span the gateway records for the request shares
// that span's trace ID.
type handlerProbe struct {
	tracer *telemetry.Tracer
	mu     sync.Mutex
	byReq  map[string]handled
}

func newHandlerProbe(tr *telemetry.Tracer) *handlerProbe {
	return &handlerProbe{tracer: tr, byReq: make(map[string]handled)}
}

func (p *handlerProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, span := telemetry.StartSpan(telemetry.WithTracer(r.Context(), p.tracer), "perfbench.handler")
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		d := time.Since(start)
		span.Finish()
		if id := r.Header.Get(seqHeader); id != "" {
			p.mu.Lock()
			p.byReq[id] = handled{dur: d, traceID: span.TraceID}
			p.mu.Unlock()
		}
	})
}

func (p *handlerProbe) get(id string) (handled, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.byReq[id]
	return h, ok
}

// diskProbe is a faultfs.FS over the real disk that counts fsyncs and
// bytes written, and times snapshot writes: from the audit-log fsync
// that acknowledges a commit to the rename that installs the snapshot
// that commit triggered (catalogue encode + write + fsync + rename).
type diskProbe struct {
	faultfs.OS
	mu        sync.Mutex
	fsyncs    int64
	fsyncUS   samples
	bytes     int64
	lastAck   time.Time
	snapshots samples // microseconds
}

type probedFile struct {
	faultfs.File
	d     *diskProbe
	audit bool
}

func (f probedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.d.mu.Lock()
	f.d.bytes += int64(n)
	f.d.mu.Unlock()
	return n, err
}

func (f probedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.d.mu.Lock()
	f.d.fsyncs++
	f.d.fsyncUS.add(end.Sub(start))
	if f.audit {
		f.d.lastAck = end
	}
	f.d.mu.Unlock()
	return err
}

func (d *diskProbe) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := d.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return probedFile{File: f, d: d, audit: strings.HasSuffix(name, "audit.log")}, nil
}

func (d *diskProbe) Rename(oldpath, newpath string) error {
	err := d.OS.Rename(oldpath, newpath)
	if err == nil && strings.HasSuffix(newpath, "snapshot.json") {
		d.mu.Lock()
		if !d.lastAck.IsZero() {
			d.snapshots.add(time.Since(d.lastAck))
		}
		d.mu.Unlock()
	}
	return err
}

// diskCounts is a point-in-time copy of the probe's tallies.
type diskCounts struct {
	fsyncs, bytes int64
	nFsync, nSnap int
}

func (d *diskProbe) counts() diskCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return diskCounts{fsyncs: d.fsyncs, bytes: d.bytes, nFsync: len(d.fsyncUS), nSnap: len(d.snapshots)}
}

// since returns the fsync and snapshot timings recorded after c.
func (d *diskProbe) since(c diskCounts) (fsync, snaps samples) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append(samples(nil), d.fsyncUS[c.nFsync:]...), append(samples(nil), d.snapshots[c.nSnap:]...)
}

// systemProbe wraps a middleware.System, timing Invoke and counting the
// policy reads (ExtractPolicy) and native checks (CheckAccess) the
// WebCom client makes per task.
type systemProbe struct {
	middleware.System
	mu       sync.Mutex
	invokes  samples
	extracts samples
	checks   int64
}

func (s *systemProbe) Invoke(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, op string, args []string) (string, error) {
	start := time.Now()
	out, err := s.System.Invoke(ctx, u, d, ot, op, args)
	dur := time.Since(start)
	s.mu.Lock()
	s.invokes.add(dur)
	s.mu.Unlock()
	return out, err
}

func (s *systemProbe) ExtractPolicy(ctx context.Context) (*rbac.Policy, error) {
	start := time.Now()
	p, err := s.System.ExtractPolicy(ctx)
	dur := time.Since(start)
	s.mu.Lock()
	s.extracts.add(dur)
	s.mu.Unlock()
	return p, err
}

func (s *systemProbe) CheckAccess(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, perm rbac.Permission) (bool, error) {
	s.mu.Lock()
	s.checks++
	s.mu.Unlock()
	return s.System.CheckAccess(ctx, u, d, ot, perm)
}

// systemCounts is a point-in-time copy of a systemProbe's tallies.
type systemCounts struct{ invokes, extracts, checks int }

func (s *systemProbe) counts() systemCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return systemCounts{invokes: len(s.invokes), extracts: len(s.extracts), checks: int(s.checks)}
}

// since returns the invoke and extract timings recorded after c, and
// the number of checks since.
func (s *systemProbe) since(c systemCounts) (invokes, extracts samples, checks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(samples(nil), s.invokes[c.invokes:]...), append(samples(nil), s.extracts[c.extracts:]...), int(s.checks) - c.checks
}

// wireProbe counts bytes and write calls on every dispatch-plane
// connection, in both directions.
type wireProbe struct {
	bytes, writes atomic.Int64
}

type probedConn struct {
	net.Conn
	w *wireProbe
}

func (c probedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.bytes.Add(int64(n))
	c.w.writes.Add(1)
	return n, err
}

type probedListener struct {
	net.Listener
	w *wireProbe
}

func (l probedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return probedConn{Conn: c, w: l.w}, nil
}

func (w *wireProbe) listener(ln net.Listener) net.Listener { return probedListener{Listener: ln, w: w} }

func (w *wireProbe) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return probedConn{Conn: c, w: w}, nil
}
