package steinersvc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// benchService builds a service over a mid-size random connected graph, the
// same shape as the root package's engine benchmarks.
func benchService(b *testing.B, cfg Config) *Service {
	b.Helper()
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	bld := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		bld.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(64))+1)
	}
	for i := 0; i < 3*n; i++ {
		bld.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(64))+1)
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(g, core.Default(4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// benchRepeatQuery drives the same 16-terminal query through the full HTTP
// handler repeatedly and returns nothing: the interesting number is ns/op.
func benchRepeatQuery(b *testing.B, svc *Service) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	seedSet := make([]int32, 0, 16)
	seen := map[int32]bool{}
	for len(seedSet) < cap(seedSet) {
		s := int32(rng.Intn(svc.g.NumVertices()))
		if !seen[s] {
			seen[s] = true
			seedSet = append(seedSet, s)
		}
	}
	body, err := json.Marshal(SolveRequest{Seeds: seedSet})
	if err != nil {
		b.Fatal(err)
	}
	payload := string(body)
	do := func() {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(payload))
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	do() // warm: the cached configuration measures hits, not the first solve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkServiceCachedRepeat measures the repeated-identical-query path
// with the solution cache on: after the first solve every request is an LRU
// hit. Compare with BenchmarkServiceUncachedRepeat — the quotient is the
// cache-path speedup (the PR's acceptance bar is >= 10x).
func BenchmarkServiceCachedRepeat(b *testing.B) {
	benchRepeatQuery(b, benchService(b, Config{Engines: 1, CacheEntries: 64}))
}

// BenchmarkServiceUncachedRepeat is the same traffic with caching disabled:
// every request pays a full engine solve.
func BenchmarkServiceUncachedRepeat(b *testing.B) {
	benchRepeatQuery(b, benchService(b, Config{Engines: 1}))
}

// benchQueries returns n distinct-terminal 8-seed tree queries.
func benchQueries(svc *Service, seed int64, n int) []SolveRequest {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]SolveRequest, n)
	for q := range qs {
		seen := map[int32]bool{}
		for len(qs[q].Seeds) < 8 {
			s := int32(rng.Intn(svc.g.NumVertices()))
			if !seen[s] {
				seen[s] = true
				qs[q].Seeds = append(qs[q].Seeds, s)
			}
		}
	}
	return qs
}

// benchPost serves one POST through the full handler and returns its status.
func benchPost(svc *Service, path string, payload []byte) int {
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
	return w.Code
}

// BenchmarkServiceBatch16 measures a 16-query batch per iteration (cache
// disabled, so every query solves), each item an engine checkout of its
// own through the one cached solve path.
func BenchmarkServiceBatch16(b *testing.B) {
	svc := benchService(b, Config{Engines: 1})
	payload, err := json.Marshal(BatchRequest{Queries: benchQueries(svc, 3, 16)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(svc, "/solve/batch", payload); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServiceBatchContended posts the same 16-query batch while another
// client sends 16 single /v1/solve queries, one after another, to the same
// one-engine service (cache disabled). ns/op covers both clients;
// batch-ms/op is the batch's latency and solve-ms/op a single query's mean
// latency, which is where the batch's engine checkouts show.
func BenchmarkServiceBatchContended(b *testing.B) {
	svc := benchService(b, Config{Engines: 1})
	batch, err := json.Marshal(BatchRequest{Queries: benchQueries(svc, 3, 16)})
	if err != nil {
		b.Fatal(err)
	}
	var singles [][]byte
	for _, q := range benchQueries(svc, 4, 16) {
		body, err := json.Marshal(q)
		if err != nil {
			b.Fatal(err)
		}
		singles = append(singles, body)
	}
	var batchNs, solveNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range singles {
				t0 := time.Now()
				if code := benchPost(svc, "/v1/solve", body); code != http.StatusOK {
					b.Errorf("solve status %d", code)
				}
				solveNs += time.Since(t0)
			}
		}()
		t0 := time.Now()
		if code := benchPost(svc, "/solve/batch", batch); code != http.StatusOK {
			b.Errorf("batch status %d", code)
		}
		batchNs += time.Since(t0)
		wg.Wait()
	}
	b.ReportMetric(float64(batchNs.Milliseconds())/float64(b.N), "batch-ms/op")
	b.ReportMetric(float64(solveNs.Milliseconds())/float64(b.N*len(singles)), "solve-ms/op")
}

// TestCachedRepeatSpeedup is the deterministic form of the >=10x acceptance
// criterion: it counts engine work instead of timing it. 50 identical
// requests against a cached service must cost exactly one engine solve —
// a 50x reduction in solves — where the uncached service pays all 50.
func TestCachedRepeatSpeedup(t *testing.T) {
	run := func(cfg Config) int64 {
		svc := testServiceCfg(t, cfg)
		srv := httptest.NewServer(svc)
		defer srv.Close()
		for i := 0; i < 50; i++ {
			resp, err := http.Get(srv.URL + "/solve?seeds=0,2,3,7,8")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
		var st StatsResponse
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Queries
	}
	cached := run(Config{Engines: 1, CacheEntries: 8})
	uncached := run(Config{Engines: 1})
	if cached != 1 {
		t.Fatalf("cached service ran %d engine solves, want 1", cached)
	}
	if uncached != 50 {
		t.Fatalf("uncached service ran %d engine solves, want 50", uncached)
	}
	if uncached/cached < 10 {
		t.Fatalf("speedup %dx < 10x", uncached/cached)
	}
}
