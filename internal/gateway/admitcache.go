package gateway

import (
	"crypto/sha256"
	"sync"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/lru"
)

// admission is one admitted bearer token: the bridged principal and the
// engine session its minted credential opened, with the conditions
// under which bridge.Admit plus engine.Session would return exactly
// these again.
type admission struct {
	p       *jwtbridge.Principal
	session *authz.CredentialSession
	// epoch is the engine epoch the admission was derived under; a
	// KeyCOM commit orphans the entry.
	epoch uint64
	// bucket is the expiry bucket the credential was minted in; a new
	// bucket mints a credential with a later bound.
	bucket time.Time
	// validFrom ≤ now < validUntil is where Admit accepts the token:
	// nbf − Leeway up to min(exp + Leeway, minted NotAfter).
	validFrom, validUntil time.Time
}

// admissionFor derives the entry for a fresh admission at bucket under
// epoch, with the leeway the bridge's verifier applies.
func admissionFor(p *jwtbridge.Principal, session *authz.CredentialSession, epoch uint64, bucket time.Time, leeway time.Duration) admission {
	a := admission{p: p, session: session, epoch: epoch, bucket: bucket,
		validUntil: p.ExpiresAt.Add(leeway)}
	if p.Scope.NotAfter.Before(a.validUntil) {
		a.validUntil = p.Scope.NotAfter
	}
	if !p.NotBefore.IsZero() {
		a.validFrom = p.NotBefore.Add(-leeway)
	}
	return a
}

// honoured reports whether the entry may stand in for a fresh admission
// at now, in bucket, under epoch.
func (a admission) honoured(now, bucket time.Time, epoch uint64) bool {
	return a.epoch == epoch && a.bucket.Equal(bucket) &&
		!now.Before(a.validFrom) && now.Before(a.validUntil)
}

// admissions is the token→session table on the decide path. Keys are
// sha256(token), so bearer secrets are never kept. Only successful
// admissions are stored; every refusal re-verifies. Capacity is the
// engine's session cap: each entry pins a session, and the table must
// not keep more of them alive than the engine would.
type admissions struct {
	mu sync.Mutex
	// epoch is the newest epoch inserted; an insert under a newer one
	// drops every older entry at once instead of letting them age out.
	epoch   uint64
	entries *lru.Cache[admission]
}

func newAdmissions(capacity int) *admissions {
	return &admissions{entries: lru.New[admission](capacity)}
}

func tokenKey(token string) string {
	sum := sha256.Sum256([]byte(token))
	return string(sum[:])
}

// get returns the entry for key if it is honoured at now, in bucket,
// under epoch.
func (t *admissions) get(key string, now, bucket time.Time, epoch uint64) (admission, bool) {
	t.mu.Lock()
	a, ok := t.entries.Get(key)
	t.mu.Unlock()
	if !ok || !a.honoured(now, bucket, epoch) {
		return admission{}, false
	}
	return a, true
}

// put stores a. The caller has checked that a.epoch is still the
// engine's; an entry from an epoch older than the table's is dropped.
func (t *admissions) put(key string, a admission) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.epoch < t.epoch {
		return
	}
	if a.epoch > t.epoch {
		t.entries.Clear()
		t.epoch = a.epoch
	}
	t.entries.Put(key, a)
}
