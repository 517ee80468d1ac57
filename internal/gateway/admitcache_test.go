package gateway

// The token→session admission table: an entry stands in for
// bridge.Admit plus engine.Session only while both would return it
// again, and the table stays within the engine's session cap.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
	"securewebcom/internal/rbac"
)

const testLeeway = 30 * time.Second

// clockFixture is a gateway on a settable clock whose verifier
// tolerates testLeeway of skew.
func clockFixture(t *testing.T) (*fixture, *time.Time) {
	now := e2eNow
	f := newFixture(t, func(c *Config) {
		c.Now = func() time.Time { return now }
		bridge, err := jwtbridge.New(&jwtbridge.Verifier{Issuer: "idp.example", HS256Secret: e2eSecret, Leeway: testLeeway},
			keys.Deterministic("Kgateway", "gw-e2e"), c.Engine, 0, c.Tel)
		if err != nil {
			t.Fatal(err)
		}
		c.Bridge = bridge
	})
	return f, &now
}

func (f *fixture) signed(c jwtbridge.Claims) string {
	f.t.Helper()
	c.Issuer = "idp.example"
	tok, err := jwtbridge.Sign("HS256", c, e2eSecret, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	return tok
}

func (f *fixture) admitCounts() (hits, misses int64) {
	return f.tel.Counter("gateway.admit.hits").Value(), f.tel.Counter("gateway.admit.misses").Value()
}

// commit applies one signed catalogue update through /v1/credentials.
func (f *fixture) commit(user string) {
	f.t.Helper()
	update := &keycom.UpdateRequest{
		Requester: f.admin.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: rbac.User(user), Domain: "DOMA", Role: "Clerk"}}},
	}
	if err := update.Sign(f.admin); err != nil {
		f.t.Fatal(err)
	}
	var ack credentialsResponse
	if resp := f.post("/v1/credentials", "", update, &ack); resp.StatusCode != http.StatusOK {
		f.t.Fatalf("commit: status %d", resp.StatusCode)
	}
}

// TestAdmissionTableRefusesStaleEntries: a token admitted and then
// served from the table is refused the table once any condition under
// which Admit plus Session would answer differently holds. Where Admit
// itself refuses, the request is refused; otherwise it is admitted
// afresh.
func TestAdmissionTableRefusesStaleEntries(t *testing.T) {
	at := func(d time.Duration) time.Time { return e2eNow.Add(d) }
	cases := []struct {
		name       string
		claims     jwtbridge.Claims
		admitAt    time.Duration // first (miss) and second (hit) decide
		then       func(f *fixture, now *time.Time)
		wantStatus int
	}{
		{
			name:       "at exp + Leeway",
			claims:     jwtbridge.Claims{ExpiresAt: at(20 * time.Second).Unix()},
			then:       func(_ *fixture, now *time.Time) { *now = at(20*time.Second + testLeeway) },
			wantStatus: http.StatusUnauthorized,
		},
		{
			name:       "at exp, inside Leeway",
			claims:     jwtbridge.Claims{ExpiresAt: at(20 * time.Second).Unix()},
			then:       func(_ *fixture, now *time.Time) { *now = at(20 * time.Second) },
			wantStatus: http.StatusUnauthorized, // the minted bound stops at exp
		},
		{
			name:       "before nbf - Leeway",
			claims:     jwtbridge.Claims{ExpiresAt: at(time.Hour).Unix(), NotBefore: at(40 * time.Second).Unix()},
			admitAt:    40*time.Second - testLeeway,
			then:       func(_ *fixture, now *time.Time) { *now = at(40*time.Second - testLeeway - time.Second) },
			wantStatus: http.StatusUnauthorized,
		},
		{
			name:       "after the bucket rolls",
			claims:     jwtbridge.Claims{ExpiresAt: at(time.Hour).Unix()},
			then:       func(_ *fixture, now *time.Time) { *now = at(jwtbridge.DefaultGranularity) },
			wantStatus: http.StatusOK,
		},
		{
			name:       "after a /v1/credentials commit",
			claims:     jwtbridge.Claims{ExpiresAt: at(time.Hour).Unix()},
			then:       func(f *fixture, _ *time.Time) { f.commit("Carol") },
			wantStatus: http.StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, now := clockFixture(t)
			tc.claims.Subject, tc.claims.Scope = "alice", "echo"
			tok := f.signed(tc.claims)

			*now = at(tc.admitAt)
			for i := 0; i < 2; i++ {
				if out, resp := f.decide(tok, "echo", nil); resp.StatusCode != http.StatusOK || !out.Allowed {
					t.Fatalf("decide %d at admission: status %d allowed %v", i, resp.StatusCode, out.Allowed)
				}
			}
			if hits, misses := f.admitCounts(); hits != 1 || misses != 1 {
				t.Fatalf("warm-up: %d hits %d misses, want 1 and 1", hits, misses)
			}

			tc.then(f, now)
			_, resp := f.decide(tok, "echo", nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if hits, misses := f.admitCounts(); hits != 1 || misses != 2 {
				t.Fatalf("stale entry honoured: %d hits %d misses, want 1 and 2", hits, misses)
			}
		})
	}
}

// TestAdmissionTableFlippedSignatureNeverHits: a token differing from
// an admitted one in a single signature byte is verified, and refused.
func TestAdmissionTableFlippedSignatureNeverHits(t *testing.T) {
	f := newFixture(t, nil)
	tok := f.token("alice", "echo")
	for i := 0; i < 2; i++ {
		if _, resp := f.decide(tok, "echo", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	dot := strings.LastIndexByte(tok, '.')
	sig, err := base64.RawURLEncoding.DecodeString(tok[dot+1:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		flipped := append([]byte(nil), sig...)
		flipped[i] ^= 0x01
		forged := tok[:dot+1] + base64.RawURLEncoding.EncodeToString(flipped)
		if _, resp := f.decide(forged, "echo", nil); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("signature byte %d flipped: status %d, want 401", i, resp.StatusCode)
		}
	}
	if hits, _ := f.admitCounts(); hits != 1 {
		t.Fatalf("%d admission hits, want only the genuine token's 1", hits)
	}
}

// TestAdmissionTableHotSetSurvivesTail: a 100k-token tail, arriving
// between sweeps of 128 hot tokens, never evicts a hot entry; the
// table's capacity is the engine's session cap.
func TestAdmissionTableHotSetSurvivesTail(t *testing.T) {
	f := newFixture(t, nil)
	if got, want := f.srv.admitted.entries.Cap(), f.engine.SessionCap(); got != want {
		t.Fatalf("table capacity %d, want the engine's session cap %d", got, want)
	}
	small := authz.NewEngine(f.engine.Checker(), authz.WithSessionCap(8))
	srv, err := New(Config{Engine: small, Bridge: f.srv.bridge})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.admitted.entries.Cap(); got != 8 {
		t.Fatalf("table capacity %d under WithSessionCap(8)", got)
	}

	const hot, tail, sweepEvery = 128, 100_000, 100
	tab := newAdmissions(authz.DefaultSessionCap)
	bucket := e2eNow.Truncate(time.Minute)
	entry := admission{bucket: bucket, validUntil: e2eNow.Add(time.Hour)}
	for i := 0; i < hot; i++ {
		tab.put(tokenKey("hot-"+strconv.Itoa(i)), entry)
	}
	for i := 0; i < tail; i++ {
		tab.put(tokenKey("tail-"+strconv.Itoa(i)), entry)
		if i%sweepEvery != 0 {
			continue
		}
		for h := 0; h < hot; h++ {
			if _, ok := tab.get(tokenKey("hot-"+strconv.Itoa(h)), e2eNow, bucket, 0); !ok {
				t.Fatalf("hot entry %d evicted after %d tail tokens", h, i+1)
			}
		}
	}
	if n := tab.entries.Len(); n != authz.DefaultSessionCap {
		t.Fatalf("table holds %d entries, want its cap %d", n, authz.DefaultSessionCap)
	}
}

// TestDecideHitAllocs is the host-independent gate on the hit path: a
// single decide served from the admission and decision caches through
// ServeHTTP, request construction included, allocates at most 50 times
// (91 before the admission table).
func TestDecideHitAllocs(t *testing.T) {
	f, tok := benchFixture(t, nil)
	body, _ := json.Marshal(decideRequest{Operation: "echo"})
	decide := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+tok)
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	decide() // admit and warm every cache
	if allocs := testing.AllocsPerRun(200, decide); allocs > 50 {
		t.Fatalf("single decide hit: %.0f allocs, gate 50", allocs)
	}
}
