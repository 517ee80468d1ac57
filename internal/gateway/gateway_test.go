package gateway

// End-to-end exercise of the front door over real HTTP: verdict parity
// with the bare engine, denial paths, and the cache-epoch flip a
// credential-plane commit must cause.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/ossec"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

var e2eNow = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

var e2eSecret = []byte("e2e-secret")

type fixture struct {
	t      testing.TB
	gwKey  *keys.KeyPair
	admin  *keys.KeyPair
	engine *authz.Engine
	svc    *keycom.Service
	tel    *telemetry.Registry
	srv    *Server
	ts     *httptest.Server
}

// newFixture assembles the whole plane: a decide engine whose policy
// trusts the gateway's minting key for WebCom, a KeyCOM service whose
// policy trusts an administrator for catalogue updates, and the HTTP
// front door over both. mut, when non-nil, tweaks the Config before the
// server is built.
func newFixture(t testing.TB, mut func(*Config)) *fixture {
	t.Helper()
	f := &fixture{t: t, tel: telemetry.NewRegistry()}
	f.gwKey = keys.Deterministic("Kgateway", "gw-e2e")
	f.admin = keys.Deterministic("Kadmin", "gw-e2e")
	ks := keys.NewKeyStore()
	ks.Add(f.gwKey)
	ks.Add(f.admin)

	decidePolicy := keynote.MustNew("POLICY",
		fmt.Sprintf("%q", f.gwKey.PublicID()), `app_domain=="WebCom";`)
	chk, err := keynote.NewChecker([]*keynote.Assertion{decidePolicy}, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	f.engine = authz.NewEngine(chk, authz.WithTelemetry(f.tel))

	nt := ossec.NewNTDomain("DOMA")
	cat := complus.NewCatalogue("gw", nt)
	cat.RegisterClass("SalariesDB.Component", map[string]middleware.Handler{})
	cat.DefineRole("Clerk")
	if err := cat.Grant("Clerk", "SalariesDB.Component", complus.PermAccess); err != nil {
		t.Fatal(err)
	}
	adminPolicy := keynote.MustNew("POLICY",
		fmt.Sprintf("%q", f.admin.PublicID()), `app_domain=="KeyCOM";`)
	adminChk, err := keynote.NewChecker([]*keynote.Assertion{adminPolicy}, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	f.svc = keycom.NewService(cat, adminChk)

	bridge, err := jwtbridge.New(&jwtbridge.Verifier{Issuer: "idp.example", HS256Secret: e2eSecret},
		f.gwKey, f.engine, 0, f.tel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engine: f.engine,
		Bridge: bridge,
		KeyCOM: f.svc,
		Tel:    f.tel,
		Now:    func() time.Time { return e2eNow },
	}
	if mut != nil {
		mut(&cfg)
	}
	f.srv, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.ts = httptest.NewServer(f.srv)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fixture) token(sub, scope string) string {
	f.t.Helper()
	tok, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
		Issuer:    "idp.example",
		Subject:   sub,
		Scope:     scope,
		ExpiresAt: e2eNow.Add(time.Hour).Unix(),
	}, e2eSecret, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return tok
}

// post fires one request and decodes the JSON response into out.
func (f *fixture) post(path, token string, body any, out any) *http.Response {
	f.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		f.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		f.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := f.ts.Client().Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			f.t.Fatalf("decode %s response %q: %v", path, raw, err)
		}
	}
	return resp
}

func (f *fixture) decide(token, op string, attrs map[string]string) (decideResponse, *http.Response) {
	f.t.Helper()
	var out decideResponse
	resp := f.post("/v1/decide", token, decideRequest{Operation: op, Attributes: attrs}, &out)
	return out, resp
}

// engineVerdict asks the bare engine the exact question the gateway
// would build for this token, bypassing HTTP entirely.
func (f *fixture) engineVerdict(sub, scope, op string, attrs map[string]string) bool {
	f.t.Helper()
	p, err := f.srv.bridge.Admit(e2eNow, f.token(sub, scope))
	if err != nil {
		f.t.Fatal(err)
	}
	q, err := f.srv.buildQuery(p.Name, op, attrs, f.srv.clockAt(e2eNow).attr)
	if err != nil {
		f.t.Fatal(err)
	}
	d, err := f.engine.Session([]*keynote.Assertion{p.Credential}).Decide(context.Background(), q)
	if err != nil {
		f.t.Fatal(err)
	}
	return d.Allowed
}

// TestE2EDecideAgreesWithEngine: for every (scope, operation) shape the
// HTTP verdict must equal the direct engine verdict — the front door
// adds admission control, never authority.
func TestE2EDecideAgreesWithEngine(t *testing.T) {
	f := newFixture(t, nil)
	cases := []struct {
		name        string
		scope, op   string
		attrs       map[string]string
		wantAllowed bool
	}{
		{"scoped op allowed", "echo add", "echo", nil, true},
		{"second scoped op allowed", "echo add", "add", nil, true},
		{"unclaimed op denied", "echo add", "transfer", nil, false},
		{"extra attrs ride along", "echo", "echo", map[string]string{"num_args": "2"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, resp := f.decide(f.token("alice", tc.scope), tc.op, tc.attrs)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if out.Allowed != tc.wantAllowed {
				t.Errorf("HTTP verdict %v, want %v", out.Allowed, tc.wantAllowed)
			}
			if direct := f.engineVerdict("alice", tc.scope, tc.op, tc.attrs); out.Allowed != direct {
				t.Errorf("HTTP verdict %v != direct engine verdict %v", out.Allowed, direct)
			}
			if out.Principal != "jwt:alice" {
				t.Errorf("principal %q", out.Principal)
			}
		})
	}
}

// TestE2EBulkMatchesSingles: a bulk batch answers element-wise exactly
// what the same queries answer one at a time.
func TestE2EBulkMatchesSingles(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.token("bob", "echo add multiply")
	ops := []string{"echo", "transfer", "add", "audit", "multiply"}

	var singles []bool
	for _, op := range ops {
		out, resp := f.decide(tok, op, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %s: status %d", op, resp.StatusCode)
		}
		singles = append(singles, out.Allowed)
	}

	queries := make([]decideQuery, len(ops))
	for i, op := range ops {
		queries[i] = decideQuery{Operation: op}
	}
	var out bulkResponse
	resp := f.post("/v1/decide", tok, decideRequest{Queries: queries}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	if len(out.Decisions) != len(ops) {
		t.Fatalf("bulk returned %d decisions for %d queries", len(out.Decisions), len(ops))
	}
	for i, d := range out.Decisions {
		if d.Allowed != singles[i] {
			t.Errorf("op %s: bulk %v != single %v", ops[i], d.Allowed, singles[i])
		}
	}
}

func TestE2EDenialPaths(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.token("alice", "echo")

	check := func(name string, resp *http.Response, want int) {
		t.Helper()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, want)
		}
	}

	_, resp := f.decide("", "echo", nil)
	check("missing bearer", resp, http.StatusUnauthorized)

	_, resp = f.decide("not.a.token", "echo", nil)
	check("garbage token", resp, http.StatusUnauthorized)

	expired, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
		Issuer: "idp.example", Subject: "alice", Scope: "echo",
		ExpiresAt: e2eNow.Add(-time.Minute).Unix(),
	}, e2eSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resp = f.decide(expired, "echo", nil)
	check("expired token", resp, http.StatusUnauthorized)

	forged, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
		Issuer: "idp.example", Subject: "alice", Scope: "echo",
		ExpiresAt: e2eNow.Add(time.Hour).Unix(),
	}, []byte("wrong-secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resp = f.decide(forged, "echo", nil)
	check("forged token", resp, http.StatusUnauthorized)

	_, resp = f.decide(tok, "", nil)
	check("empty operation", resp, http.StatusBadRequest)

	_, resp = f.decide(tok, "echo", map[string]string{"app_domain": "Other"})
	check("reserved attribute app_domain", resp, http.StatusBadRequest)

	_, resp = f.decide(tok, "echo", map[string]string{authz.NotAfterAttr: "2999-01-01T00:00:00Z"})
	check("reserved attribute not_after", resp, http.StatusBadRequest)

	resp = f.post("/v1/decide", tok, decideRequest{
		Operation: "echo",
		Queries:   []decideQuery{{Operation: "echo"}},
	}, nil)
	check("operation and queries both set", resp, http.StatusBadRequest)

	big := make([]decideQuery, MaxBulkQueries+1)
	for i := range big {
		big[i] = decideQuery{Operation: "echo"}
	}
	resp = f.post("/v1/decide", tok, decideRequest{Queries: big}, nil)
	check("oversized bulk", resp, http.StatusRequestEntityTooLarge)
}

// TestE2EBodyBounded: a body over the configured cap is refused during
// decode, before any admission state is touched.
func TestE2EBodyBounded(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MaxBodyBytes = 512 })
	tok := f.token("alice", "echo")
	attrs := map[string]string{"filler": strings.Repeat("x", 4096)}
	_, resp := f.decide(tok, "echo", attrs)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

// TestE2ECredentialCommitFlipsEpoch is the satellite invalidation test:
// a committed /v1/credentials update must advance the policy epoch and
// flush the decision cache the earlier decides warmed.
func TestE2ECredentialCommitFlipsEpoch(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.token("alice", "echo")

	first, resp := f.decide(tok, "echo", nil)
	if resp.StatusCode != http.StatusOK || !first.Allowed {
		t.Fatalf("first decide: status %d allowed %v", resp.StatusCode, first.Allowed)
	}
	if first.CacheHit {
		t.Fatal("first decide reported a cache hit on a cold cache")
	}
	warm, _ := f.decide(tok, "echo", nil)
	if !warm.CacheHit {
		t.Fatal("second identical decide missed the decision cache")
	}

	// Commit a catalogue update through the front door.
	update := &keycom.UpdateRequest{
		Requester: f.admin.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "Alice", Domain: "DOMA", Role: "Clerk"}}},
	}
	if err := update.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	var ack credentialsResponse
	resp = f.post("/v1/credentials", "", update, &ack)
	if resp.StatusCode != http.StatusOK || !ack.Committed {
		t.Fatalf("credentials commit: status %d ack %+v", resp.StatusCode, ack)
	}
	if ack.Epoch <= first.Epoch {
		t.Fatalf("commit did not advance the epoch: %d -> %d", first.Epoch, ack.Epoch)
	}

	// The warmed cache died with the epoch.
	after, _ := f.decide(tok, "echo", nil)
	if after.CacheHit {
		t.Fatal("decide after commit still hit the pre-commit cache")
	}
	if after.Epoch != ack.Epoch {
		t.Fatalf("post-commit decide under epoch %d, want %d", after.Epoch, ack.Epoch)
	}
	if !after.Allowed {
		t.Fatal("post-commit decide flipped the verdict")
	}
}

// TestE2ECredentialRefusals: a forged or unauthorised update is refused
// with 403 and leaves the epoch alone.
func TestE2ECredentialRefusals(t *testing.T) {
	f := newFixture(t, nil)
	epoch0 := f.engine.Epoch()

	unsigned := &keycom.UpdateRequest{
		Requester: f.admin.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "Eve", Domain: "DOMA", Role: "Clerk"}}},
	}
	resp := f.post("/v1/credentials", "", unsigned, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsigned update: status %d, want 403", resp.StatusCode)
	}

	// Signed by a key the admin policy does not trust.
	mallory := keys.Deterministic("Kmallory", "gw-e2e")
	forged := &keycom.UpdateRequest{
		Requester: mallory.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "Eve", Domain: "DOMA", Role: "Clerk"}}},
	}
	if err := forged.Sign(mallory); err != nil {
		t.Fatal(err)
	}
	resp = f.post("/v1/credentials", "", forged, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("untrusted requester: status %d, want 403", resp.StatusCode)
	}
	if got := f.engine.Epoch(); got != epoch0 {
		t.Fatalf("refused updates advanced the epoch: %d -> %d", epoch0, got)
	}
}

func TestE2EStatusAndHealthz(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := f.ts.Client().Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = f.ts.Client().Get(f.ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Version != Version {
		t.Errorf("version %q", st.Version)
	}
	if st.Signer != f.gwKey.PublicID() {
		t.Errorf("signer %q, want gateway key", st.Signer)
	}
}

// TestE2ERateLimitPerPrincipal: one principal exhausting its bucket is
// refused with 429 + Retry-After while a different principal still
// lands.
func TestE2ERateLimitPerPrincipal(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.Burst = 3
		c.RatePerPrincipal = 0.001 // effectively no refill inside the test
	})
	hot := f.token("hot", "echo")
	for i := 0; i < 3; i++ {
		_, resp := f.decide(hot, "echo", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	_, resp := f.decide(hot, "echo", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	// An unrelated principal is unaffected.
	_, resp = f.decide(f.token("cold", "echo"), "echo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold principal: status %d", resp.StatusCode)
	}
}
