package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/faultfs"
	"securewebcom/internal/gateway"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// gwSystem is the authzd daemon assembled in-process the way
// cmd/authzd's realMain assembles it: default admission limits and
// cache sizes, a telemetry registry and tracer, an HTTP server on a
// loopback port, and (for gateway-churn) the KeyCOM plane on a durable
// store.
type gwSystem struct {
	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	store  *keycom.Store
	srv    *http.Server
	served chan error
	url    string
	secret []byte

	handler *handlerProbe // traced only
	disk    *diskProbe    // traced only, with a store
}

// gwConfig selects what buildGateway assembles.
type gwConfig struct {
	seed     int64
	storeDir string // "" without a credential plane
	admin    *keys.KeyPair
	traced   bool
	// spanWindow sizes the tracer ring when traced; authzd's default
	// ring otherwise.
	spanWindow int
}

func seedSecret(seed int64) []byte {
	s := sha256.Sum256([]byte("perfbench-hs256|" + strconv.FormatInt(seed, 10)))
	return s[:]
}

func buildGateway(cfg gwConfig) (*gwSystem, error) {
	sys := &gwSystem{tel: telemetry.NewRegistry(), secret: seedSecret(cfg.seed)}
	if cfg.traced {
		sys.tracer = telemetry.NewTracer(cfg.spanWindow)
		sys.handler = newHandlerProbe(sys.tracer)
	} else {
		sys.tracer = telemetry.NewTracer(0)
	}

	signer := keys.Deterministic("Kgateway", "perfbench-"+strconv.FormatInt(cfg.seed, 10))
	ks := keys.NewKeyStore()
	ks.Add(signer)
	policy, err := keynote.New("POLICY", fmt.Sprintf("%q", signer.PublicID()), `app_domain=="WebCom";`)
	if err != nil {
		return nil, err
	}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		return nil, err
	}
	engine := authz.NewEngine(chk, authz.WithTelemetry(sys.tel), authz.WithLayerName("gateway"))
	verifier := &jwtbridge.Verifier{Issuer: issuer, HS256Secret: sys.secret}
	bridge, err := jwtbridge.New(verifier, signer, engine, 0, sys.tel)
	if err != nil {
		return nil, err
	}

	var svc *keycom.Service
	if cfg.storeDir != "" {
		ks.Add(cfg.admin)
		var fsys faultfs.FS
		if cfg.traced {
			sys.disk = &diskProbe{}
			fsys = sys.disk
		}
		svc, sys.store, err = openKeyCOM(cfg.storeDir, cfg.admin, ks, fsys)
		if err != nil {
			return nil, err
		}
	}

	gw, err := gateway.New(gateway.Config{
		Engine: engine,
		Bridge: bridge,
		KeyCOM: svc,
		Tel:    sys.tel,
		Tracer: sys.tracer,
	})
	if err != nil {
		sys.closeStore()
		return nil, err
	}
	var front http.Handler = gw
	if sys.handler != nil {
		front = sys.handler.wrap(gw)
	}
	mux := http.NewServeMux()
	mux.Handle("/", front)
	mux.Handle("/debug/", http.StripPrefix("/debug", telemetry.NewHandler(sys.tel, sys.tracer, nil)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.closeStore()
		return nil, err
	}
	sys.url = "http://" + ln.Addr().String()
	sys.srv = &http.Server{Handler: mux}
	sys.served = make(chan error, 1)
	go func() { sys.served <- sys.srv.Serve(ln) }()
	return sys, nil
}

func (s *gwSystem) closeStore() error {
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}

// close shuts the daemon down as authzd does on SIGTERM: drain the HTTP
// server, wait for it to stop, close the store.
func (s *gwSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	return s.closeStore()
}

// gwClient sends the benchmark's requests: decides over at most
// decideConns keep-alive connections, commits over one more.
type gwClient struct {
	url    string
	decide *http.Client
	admin  *http.Client
}

// decideConns is the number of decide connections: one per core of the
// 2-core host the benchmark was sized on.
const decideConns = 2

func newGWClient(url string) *gwClient {
	tr := func(n int) *http.Client {
		return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		}}
	}
	return &gwClient{url: url, decide: tr(decideConns), admin: tr(1)}
}

func (c *gwClient) close() {
	c.decide.CloseIdleConnections()
	c.admin.CloseIdleConnections()
}

// post sends one request and returns the status and body.
func (c *gwClient) post(hc *http.Client, path, token, seq string, data []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if seq != "" {
		req.Header.Set(seqHeader, seq)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// outcome tallies operations: attempted, refused or failed (transport
// error, 429, 5xx or any other non-200) and wrong (oracle mismatch).
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	firstErr  error
}

func (o *outcome) record(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if errors.Is(err, errWrongAnswer) {
		o.wrong++
	}
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *outcome) add(p *outcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += p.attempted
	o.failed += p.failed
	o.wrong += p.wrong
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// sendDecide sends one decide and checks it against the oracle.
func (c *gwClient) sendDecide(tr *traffic, d decide, seq string) error {
	p := &tr.principals[d.who]
	b := &tr.bodies[d.body]
	status, raw, err := c.post(c.decide, "/v1/decide", p.token, seq, b.data)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("decide for %s: status %d: %s", p.sub, status, bytes.TrimSpace(raw))
	}
	return checkDecide(p, b, raw)
}
