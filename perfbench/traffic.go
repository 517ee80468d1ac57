package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"securewebcom/internal/gateway/jwtbridge"
)

// Decide traffic for the gateway workloads. Everything a run sends is
// derived from the workload seed before the clock starts: principals,
// the scope each token grants, the request stream, the pre-marshalled
// bodies and the verdict each query must get.

// decideOps is the operation vocabulary; each token grants scopeSize of
// them, so a principal's scope is one of the C(5,3)=10 subsets.
var decideOps = []string{"read", "write", "list", "approve", "audit"}

const scopeSize = 3

// objects is the attribute vocabulary. It does not affect verdicts; it
// sets how many distinct cached decisions a principal has
// (len(decideOps) × len(objects) = 20).
var objects = []string{"obj-0", "obj-1", "obj-2", "obj-3"}

const (
	// hotPrincipals fits the bridge's mint cache (256) and the engine's
	// session cache (1024); hot×20 decisions fit the decision cache (4096).
	hotPrincipals = 128
	// tailPrincipals is the uniform tail of gateway-churn, beyond every cache.
	tailPrincipals = 100_000
	// bulkSize and bulkEvery: about 1 decide in bulkEvery is a bulk batch.
	bulkSize  = 100
	bulkEvery = 50
	// outOfScope is the share of queries naming an operation the token
	// does not grant; each must be denied.
	outOfScope = 0.05
	// bulkVariants is the number of distinct bulk bodies per scope.
	bulkVariants = 4
	// issuer is the iss claim the gateway requires.
	issuer = "perfbench-idp"
)

// scopes lists every scopeSize-subset of decideOps as a bitmask.
var scopes = func() []uint8 {
	var out []uint8
	for m := 0; m < 1<<len(decideOps); m++ {
		n := 0
		for b := m; b > 0; b >>= 1 {
			n += b & 1
		}
		if n == scopeSize {
			out = append(out, uint8(m))
		}
	}
	return out
}()

// principal is one JWT subject and the scope its token grants.
type principal struct {
	sub   string
	scope int // index into scopes
	token string
}

func (p *principal) grants(op int) bool { return scopes[p.scope]&(1<<op) != 0 }

func (p *principal) claims(exp time.Time) jwtbridge.Claims {
	var ops []string
	for i, op := range decideOps {
		if p.grants(i) {
			ops = append(ops, op)
		}
	}
	return jwtbridge.Claims{Issuer: issuer, Subject: p.sub, Scope: strings.Join(ops, " "), ExpiresAt: exp.Unix()}
}

// query is one (operation, object) pair by index.
type query struct{ op, obj int }

// body is one pre-marshalled /v1/decide body and the queries it asks.
type body struct {
	data    []byte
	queries []query
	bulk    bool
}

// decide is one request of the stream: who sends which body.
type decide struct {
	who  int // index into traffic.principals
	body int // index into traffic.bodies
}

// traffic is a workload's whole decide input.
type traffic struct {
	principals []principal
	bodies     []body
	// singles[op*len(objects)+obj] is the body of that single query;
	// bulks[scope][variant] a bulk batch for tokens of that scope; warm
	// asks every pair once.
	singles []int
	bulks   [][]int
	warm    int
	open    []decide
	closed  []decide
}

// newTraffic derives a stream of nOpen open-loop and nClosed closed-loop
// decides from seed. tailShare of them come from principals drawn
// uniformly from the tail; the rest from the hot set.
func newTraffic(seed int64, nOpen, nClosed int, tailShare float64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{}
	for i := 0; i < hotPrincipals; i++ {
		tr.principals = append(tr.principals, principal{sub: fmt.Sprintf("hot-%03d", i), scope: rng.Intn(len(scopes))})
	}
	for op := range decideOps {
		for obj := range objects {
			tr.singles = append(tr.singles, tr.addBody([]query{{op, obj}}, false))
		}
	}
	for s := range scopes {
		var vs []int
		for v := 0; v < bulkVariants; v++ {
			qs := make([]query, bulkSize)
			for i := range qs {
				qs[i] = pickQuery(rng, &principal{scope: s})
			}
			vs = append(vs, tr.addBody(qs, true))
		}
		tr.bulks = append(tr.bulks, vs)
	}
	var all []query
	for op := range decideOps {
		for obj := range objects {
			all = append(all, query{op, obj})
		}
	}
	tr.warm = tr.addBody(all, true)

	tails := map[int]int{} // tail id → principal index
	next := func() decide {
		who := rng.Intn(hotPrincipals)
		if tailShare > 0 && rng.Float64() < tailShare {
			id := rng.Intn(tailPrincipals)
			idx, ok := tails[id]
			if !ok {
				idx = len(tr.principals)
				tr.principals = append(tr.principals, principal{sub: fmt.Sprintf("tail-%06d", id), scope: id % len(scopes)})
				tails[id] = idx
			}
			who = idx
		}
		p := &tr.principals[who]
		if rng.Intn(bulkEvery) == 0 {
			return decide{who: who, body: tr.bulks[p.scope][rng.Intn(bulkVariants)]}
		}
		q := pickQuery(rng, p)
		return decide{who: who, body: tr.singles[q.op*len(objects)+q.obj]}
	}
	for i := 0; i < nOpen; i++ {
		tr.open = append(tr.open, next())
	}
	for i := 0; i < nClosed; i++ {
		tr.closed = append(tr.closed, next())
	}
	return tr
}

// pickQuery draws a query for p: out of scope with probability outOfScope.
func pickQuery(rng *rand.Rand, p *principal) query {
	in := rng.Float64() >= outOfScope
	for {
		op := rng.Intn(len(decideOps))
		if p.grants(op) == in {
			return query{op: op, obj: rng.Intn(len(objects))}
		}
	}
}

func (tr *traffic) addBody(qs []query, bulk bool) int {
	type q struct {
		Operation  string            `json:"operation"`
		Attributes map[string]string `json:"attributes"`
	}
	enc := func(x query) q {
		return q{Operation: decideOps[x.op], Attributes: map[string]string{"object": objects[x.obj]}}
	}
	var v any
	if bulk {
		batch := make([]q, len(qs))
		for i, x := range qs {
			batch[i] = enc(x)
		}
		v = map[string]any{"queries": batch}
	} else {
		v = enc(qs[0])
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data cannot fail to marshal
	}
	tr.bodies = append(tr.bodies, body{data: data, queries: qs, bulk: bulk})
	return len(tr.bodies) - 1
}

// signTokens signs one HS256 token per principal, expiring at exp.
func (tr *traffic) signTokens(secret []byte, exp time.Time) error {
	for i := range tr.principals {
		p := &tr.principals[i]
		tok, err := jwtbridge.Sign("HS256", p.claims(exp), secret, nil)
		if err != nil {
			return fmt.Errorf("sign token for %s: %w", p.sub, err)
		}
		p.token = tok
	}
	return nil
}

// decideReply is the part of a /v1/decide response the oracle reads.
type decideReply struct {
	Allowed   bool   `json:"allowed"`
	Principal string `json:"principal"`
	Decisions []struct {
		Allowed bool `json:"allowed"`
	} `json:"decisions"`
}

// errWrongAnswer marks an oracle mismatch: the gateway answered, but
// not what the token's scope says it must.
var errWrongAnswer = errors.New("wrong answer")

// checkDecide is the decide oracle: every verdict must equal "the
// token grants this operation", so an out-of-scope query is denied and
// no minted credential acts wider than its grant.
func checkDecide(p *principal, b *body, raw []byte) error {
	var r decideReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%w: undecodable reply: %v", errWrongAnswer, err)
	}
	if want := "jwt:" + p.sub; r.Principal != want {
		return fmt.Errorf("%w: principal %q, want %q", errWrongAnswer, r.Principal, want)
	}
	if !b.bulk {
		if want := p.grants(b.queries[0].op); r.Allowed != want {
			return fmt.Errorf("%w: %s %s allowed=%v, want %v", errWrongAnswer, p.sub, decideOps[b.queries[0].op], r.Allowed, want)
		}
		return nil
	}
	if len(r.Decisions) != len(b.queries) {
		return fmt.Errorf("%w: %d decisions for %d queries", errWrongAnswer, len(r.Decisions), len(b.queries))
	}
	for i, q := range b.queries {
		if want := p.grants(q.op); r.Decisions[i].Allowed != want {
			return fmt.Errorf("%w: %s bulk[%d] %s allowed=%v, want %v", errWrongAnswer, p.sub, i, decideOps[q.op], r.Decisions[i].Allowed, want)
		}
	}
	return nil
}
