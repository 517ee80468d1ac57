package gateway

// Gateway benchmarks. The hot-path benches measure the full handler
// stack (bearer parse, mint-cache hit, token bucket, decision cache,
// JSON) without a socket; the overload bench drives real HTTP at a
// deliberately saturated server and reports the two numbers CI gates
// (tools/benchcmp -max-ns against BENCH_gateway.json):
//
//   GatewayOverload/p99                    p99 latency (ns) of admitted
//                                          requests under ~2x capacity
//   GatewayOverload/shed-headroom-permille 1000 - shed rate in permille;
//                                          a ceiling on this value is a
//                                          FLOOR on the shed rate, i.e.
//                                          "under this overload the
//                                          shedder must actually shed"
//
// Both are emitted via b.ReportMetric(v, "ns/op") because benchcmp
// compares ns/op medians; the unit is nominal for the headroom metric.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/faultnet"
	"securewebcom/internal/gateway/jwtbridge"
)

func benchFixture(b testing.TB, mut func(*Config)) (*fixture, string) {
	f := newFixture(b, func(c *Config) {
		c.RatePerPrincipal = 1e12
		c.Burst = 1e12
		if mut != nil {
			mut(c)
		}
	})
	return f, f.token("bench", "echo add")
}

func BenchmarkGatewayDecideSingle(b *testing.B) {
	f, tok := benchFixture(b, nil)
	body, _ := json.Marshal(decideRequest{Operation: "echo"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+tok)
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkGatewayDecideSingleMiss is the admission-table miss path:
// every iteration presents a token never seen before (same claims, a
// fresh iat), so each pays JWT verification, the mint-cache lookup and
// the session fingerprint that a table hit skips.
func BenchmarkGatewayDecideSingleMiss(b *testing.B) {
	f, _ := benchFixture(b, nil)
	body, _ := json.Marshal(decideRequest{Operation: "echo"})
	toks := make([]string, b.N)
	for i := range toks {
		tok, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
			Issuer:    "idp.example",
			Subject:   "bench",
			Scope:     "echo add",
			ExpiresAt: e2eNow.Add(time.Hour).Unix(),
			IssuedAt:  e2eNow.Unix() - int64(i),
		}, e2eSecret, nil)
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = tok
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+toks[i])
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

func BenchmarkGatewayDecideBulk100(b *testing.B) {
	f, tok := benchFixture(b, nil)
	var dr decideRequest
	for i := 0; i < 100; i++ {
		dr.Queries = append(dr.Queries, decideQuery{Operation: "echo"})
	}
	body, _ := json.Marshal(dr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+tok)
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

type overloadResult struct {
	p50, p99     time.Duration
	shedPermille float64
}

// runOverload drives an intentionally saturated gateway over real HTTP
// through a latency-injecting network (the same lever the chaos suite
// uses): every request is a cache-busting bulk batch whose response
// outgrows net/http's 4KB write buffer, so the flush through the slow
// connection happens while the shedder slot is held. Offered
// concurrency is several times the in-flight budget. Latency quantiles
// are computed over admitted (200) requests only; the shed rate is the
// 429 fraction.
func runOverload(b *testing.B) overloadResult {
	const (
		capacity     = 4
		bulkCapacity = 2
		workers      = 24
		bulkSize     = 192
		minReqs      = 600
	)
	f, tok := benchFixture(b, func(c *Config) {
		c.MaxInFlight = capacity
		c.MaxBulkInFlight = bulkCapacity
	})
	f.ts.Close() // served through the latency-injected listener instead

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	inj := faultnet.New(faultnet.Config{Seed: 11, PLatency: 1.0, MaxLatency: 8 * time.Millisecond})
	hsrv := &http.Server{Handler: f.srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hsrv.Serve(inj.Listener(ln))
	}()
	defer func() {
		hsrv.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String()

	total := b.N
	if total < minReqs {
		total = minReqs
	}
	// Bodies are pre-marshalled outside the measured loop so client-side
	// CPU does not dilute the offered load.
	bodies := make([][]byte, workers)
	for w := range bodies {
		var dr decideRequest
		for j := 0; j < bulkSize; j++ {
			// Unique attributes bust the decision cache: every admitted
			// query pays a real evaluation.
			dr.Queries = append(dr.Queries, decideQuery{
				Operation:  "echo",
				Attributes: map[string]string{"num_args": strconv.Itoa(w*1000 + j)},
			})
		}
		buf, err := json.Marshal(dr)
		if err != nil {
			b.Fatal(err)
		}
		bodies[w] = buf
	}

	var (
		next      atomic.Int64
		sheds     atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
	)
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []time.Duration
			for {
				id := next.Add(1)
				if id > int64(total) {
					break
				}
				req, err := http.NewRequest(http.MethodPost, base+"/v1/decide", bytes.NewReader(bodies[w]))
				if err != nil {
					b.Error(err)
					return
				}
				req.Header.Set("Authorization", "Bearer "+tok)
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				elapsed := time.Since(start)
				switch resp.StatusCode {
				case http.StatusOK:
					mine = append(mine, elapsed)
				case http.StatusTooManyRequests:
					sheds.Add(1)
				default:
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			mu.Lock()
			latencies = append(latencies, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	if len(latencies) == 0 {
		b.Fatal("overload admitted nothing; no latency to report")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) time.Duration {
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	res := overloadResult{
		p50:          q(0.50),
		p99:          q(0.99),
		shedPermille: 1000 * float64(sheds.Load()) / float64(total),
	}
	b.Logf("overload: %d requests, %d admitted, shed %.0f permille, p50 %v p99 %v, server %+v",
		total, len(latencies), res.shedPermille, res.p50, res.p99, f.srv.Shed())
	return res
}

func BenchmarkGatewayOverload(b *testing.B) {
	b.Run("p99", func(b *testing.B) {
		r := runOverload(b)
		b.ReportMetric(float64(r.p99.Nanoseconds()), "ns/op")
		b.ReportMetric(float64(r.p50.Nanoseconds()), "p50-ns")
	})
	b.Run("shed-headroom-permille", func(b *testing.B) {
		r := runOverload(b)
		// Ceiling-gated floor: benchcmp -max-ns on this value refuses a
		// run whose shed rate fell below (1000 - max).
		b.ReportMetric(1000-r.shedPermille, "ns/op")
	})
}
