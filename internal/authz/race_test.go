package authz

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

// TestInvalidateRaceNeverServesStaleDecisions interleaves Invalidate
// with Decide and DecideBulk. Each round rebinds the principal name a
// credential licenses, which flips the verdict, and then invalidates:
// a decision, session or DAG computed before Invalidate returned and
// written into a cache after it would be served to the post-commit
// session sharing its fingerprint, with the old verdict. Run under
// -race.
func TestInvalidateRaceNeverServesStaleDecisions(t *testing.T) {
	ks := keys.NewKeyStore()
	admin := keys.Deterministic("Kadmin", "race")
	granted := keys.Deterministic("Kbob", "race-granted")
	other := keys.Deterministic("Kbob", "race-other")
	ks.Add(admin)
	ks.Add(granted)

	policy := keynote.MustNew("POLICY", fmt.Sprintf("%q", admin.PublicID()), `app_domain=="WebCom";`)
	// The licensee is a name: which key it means is resolved afresh in
	// every epoch.
	cred := keynote.MustNew(fmt.Sprintf("%q", admin.PublicID()), `"Kbob"`, `app_domain=="WebCom";`)
	if err := cred.Sign(admin); err != nil {
		t.Fatal(err)
	}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chk)
	creds := []*keynote.Assertion{cred}
	q := keynote.Query{
		Authorizers: []string{granted.PublicID()},
		Attributes:  map[string]string{"app_domain": "WebCom"},
	}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(bulk bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Session(creds)
				var err error
				if bulk {
					_, err = s.DecideBulk(ctx, []keynote.Query{q, q})
				} else {
					_, err = s.Decide(ctx, q)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w%2 == 1)
	}

	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		want := round%2 == 1
		if want {
			ks.Add(granted)
		} else {
			ks.Add(other)
		}
		e.Invalidate()

		s := e.Session(creds)
		d, err := s.Decide(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Allowed != want {
			t.Errorf("round %d: Decide served %v (cache hit %v) after Invalidate, want %v",
				round, d.Allowed, d.Trace.CacheHit, want)
		}
		ds, err := s.DecideBulk(ctx, []keynote.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if ds[0].Allowed != want {
			t.Errorf("round %d: DecideBulk served %v (cache hit %v) after Invalidate, want %v",
				round, ds[0].Allowed, ds[0].Trace.CacheHit, want)
		}
	}
	close(stop)
	wg.Wait()
}
