// Package gateway is the authorise-as-a-service front door: an HTTP
// surface over the repository's credential and decision planes. A web
// client presents a JWT; the gateway bridges it to a short-lived KeyNote
// principal (internal/gateway/jwtbridge), answers authorisation queries
// through the compiled authz.Engine — singly or in bulk — and accepts
// signed KeyCOM catalogue updates whose commits invalidate every
// decision cache downstream. This is the paper's trust-management
// middleware packaged the way governed SOA deployments consume policy
// decision points: one process, one wire protocol, explicit admission
// control.
//
// Endpoints:
//
//	POST /v1/decide       one decision, or a bulk batch ("queries")
//	POST /v1/credentials  signed keycom.UpdateRequest → durable commit
//	GET  /v1/status       version, epoch, engine and admission stats
//	GET  /healthz         liveness
//
// Every decide response carries the policy epoch it was decided under,
// so callers can observe a /v1/credentials commit flip the epoch and
// know exactly which cached verdicts died with it.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/telemetry"
)

// Version is the API version reported by /v1/status.
const Version = "1"

// DefaultMaxBodyBytes bounds request bodies.
const DefaultMaxBodyBytes = 1 << 20

// MaxBulkQueries bounds one bulk decide batch.
const MaxBulkQueries = 256

// Config assembles a Server.
type Config struct {
	// Engine answers decide queries (required).
	Engine *authz.Engine
	// Bridge admits JWT bearers as KeyNote principals (required).
	Bridge *jwtbridge.Bridge
	// KeyCOM, when non-nil, serves /v1/credentials; its commits are wired
	// to Engine.Invalidate so an accepted update flips the epoch.
	KeyCOM *keycom.Service
	// Tel receives gateway metrics and spans (nil disables).
	Tel *telemetry.Registry
	// Tracer, when non-nil, collects request spans.
	Tracer *telemetry.Tracer

	// MaxInFlight / MaxBulkInFlight configure the concurrency shedder
	// (<=0: defaults). Bulk requests draw from both budgets, so they are
	// shed first under pressure.
	MaxInFlight     int
	MaxBulkInFlight int
	// RatePerPrincipal / Burst configure the per-principal token buckets
	// (<=0: defaults). MaxPrincipals bounds the bucket table.
	RatePerPrincipal float64
	Burst            float64
	MaxPrincipals    int
	// MaxBodyBytes bounds request bodies (<=0: DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Now is the clock (nil: time.Now). Tests pin it.
	Now func() time.Time
}

// Server is the front door. It implements http.Handler.
type Server struct {
	engine   *authz.Engine
	bridge   *jwtbridge.Bridge
	keycom   *keycom.Service
	tracer   *telemetry.Tracer
	shed     *shedder
	buckets  *tokenBuckets
	admitted *admissions
	maxBody  int64
	now      func() time.Time
	mux      *http.ServeMux

	// clock memoises the expiry bucket and its rendering (see clockAt).
	clock atomic.Pointer[bucketClock]

	// Metric handles, looked up once; nil when telemetry is off.
	decides, authRejects, shedConcurrency, shedRate *telemetry.Counter
	admitHits, admitMisses, commits, refusals       *telemetry.Counter
	decideLatency                                   *telemetry.Histogram
}

// New builds a Server and, when a KeyCOM service is present, wires its
// commits to the engine's invalidation.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("gateway: Config.Engine is required")
	}
	if cfg.Bridge == nil {
		return nil, errors.New("gateway: Config.Bridge is required")
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	tel := cfg.Tel
	s := &Server{
		engine:   cfg.Engine,
		bridge:   cfg.Bridge,
		keycom:   cfg.KeyCOM,
		tracer:   cfg.Tracer,
		shed:     newShedder(cfg.MaxInFlight, cfg.MaxBulkInFlight),
		buckets:  newTokenBuckets(cfg.RatePerPrincipal, cfg.Burst, cfg.MaxPrincipals),
		admitted: newAdmissions(cfg.Engine.SessionCap()),
		maxBody:  maxBody,
		now:      now,

		decides:         tel.Counter("gateway.decides"),
		authRejects:     tel.Counter("gateway.auth.rejects"),
		shedConcurrency: tel.Counter("gateway.shed.over capacity"),
		shedRate:        tel.Counter("gateway.shed.rate limit"),
		admitHits:       tel.Counter("gateway.admit.hits"),
		admitMisses:     tel.Counter("gateway.admit.misses"),
		commits:         tel.Counter("gateway.credentials.commits"),
		refusals:        tel.Counter("gateway.credentials.refusals"),
		decideLatency:   tel.Histogram("gateway.decide.latency"),
	}
	if s.keycom != nil {
		// A committed catalogue update must orphan every cached decision,
		// session and minted credential at once.
		s.keycom.OnCommit(s.engine.Invalidate)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/credentials", s.handleCredentials)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tracer != nil {
		r = r.WithContext(telemetry.WithTracer(r.Context(), s.tracer))
	}
	s.mux.ServeHTTP(w, r)
}

// ShedStats reports the admission-control counters.
type ShedStats struct {
	InFlight  int64 `json:"in_flight"`
	HighWater int64 `json:"high_water"`
	Admitted  int64 `json:"admitted"`
	Sheds     int64 `json:"sheds"`
}

// Shed returns a snapshot of the admission counters.
func (s *Server) Shed() ShedStats {
	return ShedStats{
		InFlight:  s.shed.inFlight.Load(),
		HighWater: s.shed.highWater.Load(),
		Admitted:  s.shed.admitted.Load(),
		Sheds:     s.shed.sheds.Load(),
	}
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// shedReply refuses a request with 429 and a Retry-After hint; the
// request has done no work yet, so retrying is always safe.
func (s *Server) shedReply(w http.ResponseWriter, retryAfter time.Duration, why string, c *telemetry.Counter) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	c.Inc()
	s.fail(w, http.StatusTooManyRequests, "shed: %s", why)
}

// bearer extracts the Authorization bearer token.
func bearer(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(h[len(prefix):]), true
}

// decideRequest is the /v1/decide body: either one query (Operation
// set) or a bulk batch (Queries set). Setting both is an error.
type decideRequest struct {
	Operation  string            `json:"operation,omitempty"`
	Attributes map[string]string `json:"attributes,omitempty"`
	Queries    []decideQuery     `json:"queries,omitempty"`
}

type decideQuery struct {
	Operation  string            `json:"operation"`
	Attributes map[string]string `json:"attributes,omitempty"`
}

// decideResult is one decision on the wire.
type decideResult struct {
	Allowed  bool   `json:"allowed"`
	Value    string `json:"value"`
	CacheHit bool   `json:"cache_hit"`
}

type decideResponse struct {
	decideResult
	Epoch     uint64 `json:"epoch"`
	Principal string `json:"principal"`
}

type bulkResponse struct {
	Decisions []decideResult `json:"decisions"`
	Epoch     uint64         `json:"epoch"`
	Principal string         `json:"principal"`
}

// reservedAttrs are query attributes the gateway stamps itself; a
// client supplying them could widen its own authority.
var reservedAttrs = map[string]bool{
	"app_domain":       true,
	"operation":        true,
	authz.NotAfterAttr: true,
}

func (s *Server) buildQuery(principal string, op string, attrs map[string]string, nowAttr string) (keynote.Query, error) {
	if op == "" {
		return keynote.Query{}, errors.New("operation is required")
	}
	qa := make(map[string]string, len(attrs)+3)
	for k, v := range attrs {
		if reservedAttrs[k] {
			return keynote.Query{}, fmt.Errorf("attribute %q is reserved", k)
		}
		qa[k] = v
	}
	qa["app_domain"] = s.bridge.AppDomain
	qa["operation"] = op
	qa[authz.NotAfterAttr] = nowAttr
	return keynote.Query{Authorizers: []string{principal}, Attributes: qa}, nil
}

// bucketClock is one expiry bucket and its rendering.
type bucketClock struct {
	bucket time.Time
	attr   string
}

// clockAt returns the expiry bucket now falls in — the bridge's
// granularity, the same truncation its minted bounds use — rendered for
// the query's expiry attribute, so decisions stay cacheable within a
// bucket. Expiry is therefore enforced at bucket resolution: a
// credential may be honoured up to one granularity past its bound,
// never more. The rendering is memoised, so it runs once a bucket.
func (s *Server) clockAt(now time.Time) *bucketClock {
	g := s.bridge.Granularity
	if g <= 0 {
		g = jwtbridge.DefaultGranularity
	}
	bucket := now.UTC().Truncate(g)
	if c := s.clock.Load(); c != nil && c.bucket.Equal(bucket) {
		return c
	}
	c := &bucketClock{bucket: bucket, attr: bucket.Format(time.RFC3339)}
	s.clock.Store(c)
	return c
}

// admit resolves a bearer token to its principal and engine session,
// from the admission table when an entry is honoured at now, else
// through bridge.Admit and engine.Session. epoch is the engine epoch
// the pair was derived under.
func (s *Server) admit(now, bucket time.Time, token string) (*jwtbridge.Principal, *authz.CredentialSession, uint64, error) {
	key := tokenKey(token)
	epoch := s.engine.Epoch()
	if a, ok := s.admitted.get(key, now, bucket, epoch); ok {
		s.admitHits.Inc()
		return a.p, a.session, epoch, nil
	}
	s.admitMisses.Inc()
	p, err := s.bridge.Admit(now, token)
	if err != nil {
		return nil, nil, 0, err
	}
	session := s.engine.Session([]*keynote.Assertion{p.Credential})
	// Like the engine's own tables: a derivation that straddled an
	// Invalidate is answered but never stored.
	if s.engine.Epoch() == epoch {
		s.admitted.put(key, admissionFor(p, session, epoch, bucket, s.bridge.Leeway()))
	}
	return p, session, epoch, nil
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	ctx, span := telemetry.StartSpan(r.Context(), "gateway.decide")
	defer span.Finish()

	// Parse first: whether the request is bulk decides which shedder
	// budget it draws from. The body is hard-bounded, so a hostile
	// payload cannot balloon the parse.
	var req decideRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	bulk := len(req.Queries) > 0
	if bulk && req.Operation != "" {
		s.fail(w, http.StatusBadRequest, "set either operation or queries, not both")
		return
	}
	if len(req.Queries) > MaxBulkQueries {
		s.fail(w, http.StatusRequestEntityTooLarge, "bulk batch over %d queries", MaxBulkQueries)
		return
	}
	span.SetAttr("bulk", strconv.FormatBool(bulk))

	// Admission, cheapest refusal first: the concurrency shedder runs
	// before the signature on the bearer token is ever checked. A shed
	// request has touched no engine or bridge state — it is never
	// half-executed.
	release, ok := s.shed.acquire(bulk)
	if !ok {
		span.SetAttr("shed", "concurrency")
		s.shedReply(w, ShedRetryAfter, "over capacity", s.shedConcurrency)
		return
	}
	defer release()

	tok, ok := bearer(r)
	if !ok {
		s.fail(w, http.StatusUnauthorized, "missing bearer token")
		return
	}
	clock := s.clockAt(start)
	p, session, epoch, err := s.admit(start, clock.bucket, tok)
	if err != nil {
		s.authRejects.Inc()
		s.fail(w, http.StatusUnauthorized, "%v", err)
		return
	}
	span.SetAttr("principal", p.Name)

	allowed, wait := s.buckets.allow(p.Name, start)
	if !allowed {
		span.SetAttr("shed", "rate")
		s.shedReply(w, wait, "rate limit", s.shedRate)
		return
	}

	if !bulk {
		q, err := s.buildQuery(p.Name, req.Operation, req.Attributes, clock.attr)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		d, err := session.Decide(ctx, q)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "decide: %v", err)
			return
		}
		s.observeDecide(start, 1)
		s.writeJSON(w, http.StatusOK, decideResponse{
			decideResult: decideResult{Allowed: d.Allowed, Value: d.Value, CacheHit: d.Trace.CacheHit},
			Epoch:        epoch,
			Principal:    p.Name,
		})
		return
	}

	qs := make([]keynote.Query, len(req.Queries))
	for i, dq := range req.Queries {
		q, err := s.buildQuery(p.Name, dq.Operation, dq.Attributes, clock.attr)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		qs[i] = q
	}
	ds, err := session.DecideBulk(ctx, qs)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "decide bulk: %v", err)
		return
	}
	out := bulkResponse{Decisions: make([]decideResult, len(ds)), Epoch: epoch, Principal: p.Name}
	for i, d := range ds {
		out.Decisions[i] = decideResult{Allowed: d.Allowed, Value: d.Value, CacheHit: d.Trace.CacheHit}
	}
	s.observeDecide(start, len(ds))
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) observeDecide(start time.Time, n int) {
	s.decides.Add(int64(n))
	s.decideLatency.ObserveDuration(time.Since(start))
}

// credentialsResponse acknowledges a committed catalogue update.
type credentialsResponse struct {
	Committed bool   `json:"committed"`
	Epoch     uint64 `json:"epoch"`
}

func (s *Server) handleCredentials(w http.ResponseWriter, r *http.Request) {
	ctx, span := telemetry.StartSpan(r.Context(), "gateway.credentials")
	defer span.Finish()
	if s.keycom == nil {
		s.fail(w, http.StatusServiceUnavailable, "no credential plane configured")
		return
	}
	var req keycom.UpdateRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if err := s.keycom.Apply(ctx, &req); err != nil {
		s.refusals.Inc()
		span.SetAttr("refused", "true")
		// Authorisation and lint refusals are the caller's fault; anything
		// else (store, middleware) is ours.
		code := http.StatusForbidden
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, code, "%v", err)
		return
	}
	s.commits.Inc()
	// The epoch in the ack is the post-commit epoch: the caller can watch
	// it advance past the epoch of any earlier decide response.
	s.writeJSON(w, http.StatusOK, credentialsResponse{Committed: true, Epoch: s.engine.Epoch()})
}

// statusResponse is the /v1/status body.
type statusResponse struct {
	Version string      `json:"version"`
	Epoch   uint64      `json:"epoch"`
	Signer  string      `json:"signer"`
	Engine  authz.Stats `json:"engine"`
	Shed    ShedStats   `json:"shed"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, statusResponse{
		Version: Version,
		Epoch:   s.engine.Epoch(),
		Signer:  s.bridge.Signer(),
		Engine:  s.engine.Stats(),
		Shed:    s.Shed(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
