package keynote

import "sync"

// MemoResolver wraps a Resolver with a concurrency-safe memo table so
// that repeated canonicalisation of the same principal name costs one
// map lookup instead of a resolver round-trip. A KeyNote fixpoint
// resolves the same handful of principals over and over; a WebCom master
// resolves the same client principal on every scheduled task — both
// collapse to a single underlying Resolve per name.
//
// Negative results are memoized too: an unknown name stays unknown until
// Flush is called (the authz engine flushes on catalogue invalidation,
// when new keys may have been registered).
type MemoResolver struct {
	r   Resolver
	mu  sync.RWMutex
	m   map[string]memoEntry
	gen uint64 // bumped by Flush; guarded by mu
}

type memoEntry struct {
	id  string
	err error
}

// NewMemoResolver wraps r. A nil r yields a resolver that fails every
// lookup, mirroring a nil Resolver on a Checker.
func NewMemoResolver(r Resolver) *MemoResolver {
	return &MemoResolver{r: r, m: make(map[string]memoEntry)}
}

// Resolve implements Resolver.
func (mr *MemoResolver) Resolve(nameOrID string) (string, error) {
	mr.mu.RLock()
	e, ok := mr.m[nameOrID]
	gen := mr.gen
	mr.mu.RUnlock()
	if ok {
		return e.id, e.err
	}
	var id string
	var err error
	if mr.r == nil {
		err = errNilResolver
	} else {
		id, err = mr.r.Resolve(nameOrID)
	}
	// A resolution that straddled a Flush may predate the catalogue
	// change the Flush announced: answer the caller, memoise nothing.
	mr.mu.Lock()
	if mr.gen == gen {
		mr.m[nameOrID] = memoEntry{id: id, err: err}
	}
	mr.mu.Unlock()
	return id, err
}

// Flush empties the memo table. Call when the underlying key catalogue
// may have changed.
func (mr *MemoResolver) Flush() {
	mr.mu.Lock()
	mr.m = make(map[string]memoEntry)
	mr.gen++
	mr.mu.Unlock()
}

// MemoizeResolver wraps the checker's resolver in a MemoResolver and
// returns the wrapper so callers can Flush it when the key catalogue
// changes. Idempotent; a checker with no resolver is left alone (nil is
// returned). Not safe to call concurrently with Check — do it once,
// right after construction, as authz.NewEngine does.
func (c *Checker) MemoizeResolver() *MemoResolver {
	if c.resolver == nil {
		return nil
	}
	if mr, ok := c.resolver.(*MemoResolver); ok {
		return mr
	}
	mr := NewMemoResolver(c.resolver)
	c.resolver = mr
	return mr
}

var errNilResolver = &resolverError{"keynote: no resolver configured"}

type resolverError struct{ msg string }

func (e *resolverError) Error() string { return e.msg }
