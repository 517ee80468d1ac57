package jwtbridge

import (
	"fmt"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// PrincipalPrefix namespaces bridged principals so a token subject can
// never collide with (or impersonate) a real key principal: "alice"
// becomes the opaque principal name "jwt:alice", which only credentials
// minted by the gateway's key ever license.
const PrincipalPrefix = "jwt:"

// DefaultTTL bounds a minted credential's lifetime when the
// configuration does not.
const DefaultTTL = 5 * time.Minute

// DefaultGranularity is the bucket the expiry bound is computed on. All
// mints inside one bucket share a NotAfter — and therefore a MintCache
// key — so a hot user costs one Ed25519 signature per bucket, not one
// per request.
const DefaultGranularity = time.Minute

// Bridge mints short-lived, exactly-scoped KeyNote credentials for
// verified JWT subjects. It is safe for concurrent use. Its exported
// fields, and the Verifier it was built with, must not change once it
// serves: callers may cache what Admit returned for as long as the
// Principal's validity window and the engine epoch allow.
type Bridge struct {
	verifier *Verifier
	signer   *keys.KeyPair
	mint     *authz.MintCache

	rejects, mints, mintHits, mintErrors *telemetry.Counter

	// AppDomain scopes every minted credential (default "WebCom").
	AppDomain string
	// TTL caps a minted credential's lifetime; the token's own exp
	// shortens it further but never extends it. Default DefaultTTL.
	TTL time.Duration
	// Granularity buckets the expiry bound (default DefaultGranularity).
	Granularity time.Duration
}

// New builds a bridge that verifies tokens with v and signs delegations
// with signer (which must hold its private half). mintCacheSize bounds
// the underlying authz.MintCache (<=0: its default); the cache is
// epoch-guarded by engine, so a KeyCOM commit orphans every outstanding
// minted credential at once.
func New(v *Verifier, signer *keys.KeyPair, engine *authz.Engine, mintCacheSize int, tel *telemetry.Registry) (*Bridge, error) {
	if signer == nil || signer.Private == nil {
		return nil, fmt.Errorf("jwtbridge: signer must hold a private key")
	}
	return &Bridge{
		verifier:    v,
		signer:      signer,
		mint:        authz.NewMintCache(engine, mintCacheSize, tel),
		rejects:     tel.Counter("gateway.bridge.rejects"),
		mints:       tel.Counter("gateway.bridge.mints"),
		mintHits:    tel.Counter("gateway.bridge.mint_hits"),
		mintErrors:  tel.Counter("gateway.bridge.mint_errors"),
		AppDomain:   "WebCom",
		TTL:         DefaultTTL,
		Granularity: DefaultGranularity,
	}, nil
}

// Signer returns the canonical principal of the bridge's minting key —
// the principal the gateway's root policy must authorise for everything
// the bridge may delegate.
func (b *Bridge) Signer() string { return b.signer.PublicID() }

// Leeway is the clock skew the verifier tolerates on exp and nbf.
func (b *Bridge) Leeway() time.Duration { return b.verifier.Leeway }

// Principal is one bridged identity: the KeyNote principal name, the
// credential licensing it, and the scope it was minted for.
type Principal struct {
	// Name is the KeyNote principal ("jwt:<sub>").
	Name string
	// Credential is the minted delegation (gateway key → Name, scoped to
	// the token's claims, expiry-bounded).
	Credential *keynote.Assertion
	// Scope is the delegation scope the credential was minted (and
	// linted) against.
	Scope authz.DelegationScope
	// CacheHit reports whether the credential came from the mint cache.
	CacheHit bool
	// ExpiresAt and NotBefore are the token's exp and nbf claims;
	// NotBefore is zero when the token carries none.
	ExpiresAt, NotBefore time.Time
}

// scopeOf derives the delegation scope a set of verified claims is
// entitled to: exactly the claimed operations and domains, bounded at
// min(bucketed now+TTL, token exp).
func (b *Bridge) scopeOf(now time.Time, c Claims) authz.DelegationScope {
	ttl, gran := b.TTL, b.Granularity
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if gran <= 0 {
		gran = DefaultGranularity
	}
	notAfter := now.UTC().Truncate(gran).Add(ttl)
	if exp := time.Unix(c.ExpiresAt, 0).UTC(); exp.Before(notAfter) {
		notAfter = exp
	}
	return authz.DelegationScope{
		AppDomain:  b.AppDomain,
		Operations: c.Operations(),
		Domains:    c.Domains,
		NotAfter:   notAfter,
	}
}

// Admit verifies a token and returns its bridged principal, minting the
// scoped credential on a cache miss. The minted chain is linted before
// it is ever cached (authz.MintCache refuses PL003 widening and every
// error-severity finding), so an honoured token can only yield a
// credential at most as wide as its claims.
func (b *Bridge) Admit(now time.Time, token string) (*Principal, error) {
	claims, err := b.verifier.Verify(now, token)
	if err != nil {
		b.rejects.Inc()
		return nil, err
	}
	scope := b.scopeOf(now, claims)
	if !scope.NotAfter.After(now) {
		b.rejects.Inc()
		return nil, ErrExpired
	}
	name := PrincipalPrefix + claims.Subject
	cred, hit, err := b.mint.Mint(b.signer, name, scope)
	if err != nil {
		b.mintErrors.Inc()
		return nil, fmt.Errorf("jwtbridge: mint for %s: %w", name, err)
	}
	if hit {
		b.mintHits.Inc()
	} else {
		b.mints.Inc()
	}
	p := &Principal{Name: name, Credential: cred, Scope: scope, CacheHit: hit,
		ExpiresAt: time.Unix(claims.ExpiresAt, 0).UTC()}
	if claims.NotBefore != 0 {
		p.NotBefore = time.Unix(claims.NotBefore, 0).UTC()
	}
	return p, nil
}
