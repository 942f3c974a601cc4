package steinersvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// testGraph builds the paper's Fig. 1 example graph.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(9)
	for _, e := range [][3]int32{
		{0, 1, 16}, {0, 4, 2}, {4, 5, 4}, {1, 5, 2}, {1, 2, 20}, {5, 6, 1},
		{2, 6, 1}, {2, 3, 24}, {6, 7, 2}, {3, 7, 2}, {7, 8, 2}, {3, 8, 18},
	} {
		b.AddEdge(graph.VID(e[0]), graph.VID(e[1]), uint32(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testServiceCfg(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(testGraph(t), core.Default(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testService and testServicePool build cache-less, job-less services so the
// engine-pool tests observe every query as an engine solve.
func testService(t testing.TB) *Service {
	t.Helper()
	return testServicePool(t, 1)
}

func testServicePool(t testing.TB, engines int) *Service {
	t.Helper()
	return testServiceCfg(t, Config{Engines: engines})
}

func TestInfoEndpoint(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Vertices != 9 || info.Arcs != 24 {
		t.Fatalf("info = %+v", info)
	}
	if info.MaxWeight != 24 || info.MinWeight != 1 {
		t.Fatalf("weights = %+v", info)
	}
}

func TestSolvePostExplicitSeeds(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	body, _ := json.Marshal(SolveRequest{Seeds: []int32{0, 2, 3, 7, 8}})
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 14 { // the paper's Fig. 1 optimal tree weight
		t.Fatalf("total = %d, want 14", out.Total)
	}
	if len(out.Edges) != 7 || len(out.Seeds) != 5 {
		t.Fatalf("edges=%d seeds=%d", len(out.Edges), len(out.Seeds))
	}
	if len(out.Phases) != 6 {
		t.Fatalf("phases = %d", len(out.Phases))
	}
}

func TestSolveGetConvenienceForm(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve?seeds=0,8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Shortest 0-8 path: 0-4-5-6-7-8 = 2+4+1+2+2 = 11.
	if out.Total != 11 {
		t.Fatalf("total = %d, want 11", out.Total)
	}
}

func TestSolveByK(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	body, _ := json.Marshal(SolveRequest{K: 3, Strategy: "uniform"})
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Seeds) != 3 {
		t.Fatalf("seeds = %v", out.Seeds)
	}
}

func TestSolveErrors(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"empty body", func() (*http.Response, error) {
			return http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{}"))
		}, http.StatusBadRequest},
		{"both seeds and k", func() (*http.Response, error) {
			return http.Post(srv.URL+"/solve", "application/json",
				strings.NewReader(`{"seeds":[1],"k":3}`))
		}, http.StatusBadRequest},
		{"bad json", func() (*http.Response, error) {
			return http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"out of range seed", func() (*http.Response, error) {
			return http.Get(srv.URL + "/solve?seeds=0,99999")
		}, http.StatusUnprocessableEntity},
		{"bad strategy", func() (*http.Response, error) {
			return http.Post(srv.URL+"/solve", "application/json",
				strings.NewReader(`{"k":2,"strategy":"nope"}`))
		}, http.StatusBadRequest},
		{"wrong method on info", func() (*http.Response, error) {
			return http.Post(srv.URL+"/info", "", nil)
		}, http.StatusMethodNotAllowed},
		{"delete on solve", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/solve", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/solve?seeds=0,3,8")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = &http.ProtocolError{ErrorString: "bad status"}
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKTooLargeRejectedWith400(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve?k=1000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestEnginePoolConcurrentQueries fires many parallel queries with distinct
// expected answers at a 4-engine pool; run under -race this is the
// acceptance test for concurrent in-flight solves with no cross-query state
// leakage (a leaked Voronoi entry or walked mark would corrupt a tree and
// change its total).
func TestEnginePoolConcurrentQueries(t *testing.T) {
	svc := testServicePool(t, 4)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	cases := []struct {
		query string
		total int64
	}{
		{"/solve?seeds=0,2,3,7,8", 14}, // the paper's Fig. 1 tree
		{"/solve?seeds=0,8", 11},       // shortest 0-8 path
		{"/solve?seeds=0,3", 11},       // 0-4-5-6-7-3 = 2+4+1+2+2
		{"/solve?seeds=2,5", 2},        // 5-6-2
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 8; round++ {
		for _, tc := range cases {
			wg.Add(1)
			go func(query string, want int64) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + query)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", query, resp.StatusCode)
					return
				}
				var out SolveResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errs <- err
					return
				}
				if out.Total != want {
					errs <- fmt.Errorf("%s: total %d, want %d", query, out.Total, want)
				}
			}(tc.query, tc.total)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The pool must have been exercised and returned to idle.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engines != 4 || st.EnginesIdle != 4 || st.InFlight != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	if st.Queries != 32 || st.Errors != 0 {
		t.Fatalf("queries=%d errors=%d, want 32/0", st.Queries, st.Errors)
	}
}

func TestStatsEndpoint(t *testing.T) {
	svc := testServicePool(t, 2)
	srv := httptest.NewServer(svc)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/solve?seeds=0,8")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One failing query must count as an error, not a phase sample.
	resp, err := http.Get(srv.URL + "/solve?seeds=0,99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engines != 2 || st.Queries != 4 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(st.Phases))
	}
	for _, ph := range st.Phases {
		if ph.Calls != 3 {
			t.Fatalf("phase %q calls = %d, want 3", ph.Name, ph.Calls)
		}
	}
	if st.AvgSolveSeconds <= 0 {
		t.Fatalf("avgSolveSeconds = %v", st.AvgSolveSeconds)
	}

	// /stats is GET only.
	post, err := http.Post(srv.URL+"/stats", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status = %d", post.StatusCode)
	}
}

// TestInfoReportsEngines checks /info includes the pool size.
func TestInfoReportsEngines(t *testing.T) {
	svc := testServicePool(t, 3)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Engines != 3 {
		t.Fatalf("engines = %d, want 3", info.Engines)
	}
}

// TestInfoAndStatsReportShardSubstrate checks the serving layers surface the
// engines' shard substrate: partition kind and shard memory.
func TestInfoAndStatsReportShardSubstrate(t *testing.T) {
	opts := core.Default(2)
	opts.Partition = core.PartitionArcBlock
	s, err := New(testGraph(t), opts, Config{Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Partition != "arcblock" || info.Ranks != 2 {
		t.Fatalf("info substrate = %+v", info)
	}
	if info.ShardBytes <= 0 {
		t.Fatalf("info missing shard substrate: %+v", info)
	}
	if info.StateSlabBytes <= 0 {
		t.Fatalf("info missing state-slab bytes: %+v", info)
	}

	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shard.Partition != "arcblock" || stats.Shard.Ranks != 2 {
		t.Fatalf("stats shard = %+v", stats.Shard)
	}
	if stats.Shard.TotalBytes <= 0 || stats.Shard.MaxRankBytes <= 0 ||
		stats.Shard.MaxRankBytes > stats.Shard.TotalBytes {
		t.Fatalf("stats shard bytes inconsistent: %+v", stats.Shard)
	}
	if stats.Shard.TotalBytes != info.ShardBytes {
		t.Fatalf("stats shard bytes %d != info shard bytes %d", stats.Shard.TotalBytes, info.ShardBytes)
	}
	if stats.Shard.StateBytes != info.StateSlabBytes || stats.Shard.MaxRankStateBytes <= 0 ||
		stats.Shard.MaxRankStateBytes > stats.Shard.StateBytes {
		t.Fatalf("stats state-slab bytes inconsistent with info: %+v vs %+v", stats.Shard, info)
	}
}

// --- cache, batch, async, shutdown ---

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getStats(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[StatsResponse](t, resp)
}

// TestSolveCacheHitsAndCanonicalization: repeated and permuted terminal
// sets must be answered from the cache — one engine solve total — and the
// /stats cache block must account for it.
func TestSolveCacheHitsAndCanonicalization(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 8})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	queries := []string{
		"/solve?seeds=0,2,3,7,8",
		"/solve?seeds=0,2,3,7,8", // identical
		"/solve?seeds=8,3,0,7,2", // permuted: same canonical set
		"/solve?seeds=3,8,2,0,7", // another permutation
	}
	for i, q := range queries {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		out := decodeBody[SolveResponse](t, resp)
		if out.Total != 14 {
			t.Fatalf("query %d: total = %d, want 14", i, out.Total)
		}
		if wantCached := i > 0; out.Cached != wantCached {
			t.Fatalf("query %d: cached = %v, want %v", i, out.Cached, wantCached)
		}
	}
	st := getStats(t, srv.URL)
	if st.Queries != 1 {
		t.Fatalf("engine queries = %d, want 1 (rest served from cache)", st.Queries)
	}
	if st.Cache == nil || st.Cache.Hits != 3 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if got, want := st.Cache.HitRate, 0.75; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
}

// TestDuplicateSeedsMapTo400 covers the satellite fix: duplicate terminals
// are a client error on every endpoint.
func TestDuplicateSeedsMapTo400(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 8, JobQueue: 4})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/solve?seeds=0,8,0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/solve status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: []int32{1, 1}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/solve/async status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/solve/batch", BatchRequest{Queries: []SolveRequest{
		{Seeds: []int32{0, 8}},
		{Seeds: []int32{2, 2}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve/batch status = %d", resp.StatusCode)
	}
	batch := decodeBody[BatchResponse](t, resp)
	if len(batch.Results) != 2 {
		t.Fatalf("results = %d", len(batch.Results))
	}
	if batch.Results[0].Error != "" || batch.Results[0].Result == nil {
		t.Fatalf("valid item failed: %+v", batch.Results[0])
	}
	if batch.Results[1].Error == "" || !strings.Contains(batch.Results[1].Error, "duplicate seed") {
		t.Fatalf("duplicate item error = %q", batch.Results[1].Error)
	}
}

// TestSolveBatchEndpoint exercises POST /solve/batch: explicit seeds, k
// selection, per-item errors, intra-batch dedup and cache interplay.
func TestSolveBatchEndpoint(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 8})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Warm the cache with one query.
	if resp, err := http.Get(srv.URL + "/solve?seeds=0,8"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	req := BatchRequest{Queries: []SolveRequest{
		{Seeds: []int32{0, 2, 3, 7, 8}}, // miss
		{Seeds: []int32{8, 0}},          // cache hit (permuted warm query)
		{Seeds: []int32{2, 5}},          // miss
		{},                              // invalid: neither seeds nor k
		{Seeds: []int32{0, 99999}},      // out of range: engine error
		{K: 3, Strategy: "uniform"},     // k-selection
		{Seeds: []int32{2, 5}},          // duplicate of item 2 within the batch
	}}
	resp := postJSON(t, srv.URL+"/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[BatchResponse](t, resp)
	if len(out.Results) != len(req.Queries) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(req.Queries))
	}
	wantTotals := map[int]int64{0: 14, 1: 11, 2: 2, 6: 2}
	for i, want := range wantTotals {
		r := out.Results[i]
		if r.Error != "" || r.Result == nil {
			t.Fatalf("item %d: %+v", i, r)
		}
		if r.Result.Total != want {
			t.Fatalf("item %d: total = %d, want %d", i, r.Result.Total, want)
		}
	}
	if !out.Results[1].Result.Cached {
		t.Fatal("item 1 should be a cache hit")
	}
	if out.Results[3].Error == "" || !strings.Contains(out.Results[3].Error, "need seeds or k") {
		t.Fatalf("item 3 error = %q", out.Results[3].Error)
	}
	if out.Results[4].Error == "" || !strings.Contains(out.Results[4].Error, "out of range") {
		t.Fatalf("item 4 error = %q", out.Results[4].Error)
	}
	if out.Results[5].Result == nil || len(out.Results[5].Result.Seeds) != 3 {
		t.Fatalf("item 5: %+v", out.Results[5])
	}
	st := getStats(t, srv.URL)
	if st.BatchRequests != 1 || st.BatchQueries != int64(len(req.Queries)) {
		t.Fatalf("batch stats: %d requests, %d queries", st.BatchRequests, st.BatchQueries)
	}
	// Items 2 and 6 share one solve (intra-batch dedup): engine queries are
	// warmup + item0 + item2/6 + item4(error) + item5 = 5.
	if st.Queries != 5 {
		t.Fatalf("engine queries = %d, want 5", st.Queries)
	}
	if st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}

	// A batch must be a POST with at least one query.
	if resp, err := http.Get(srv.URL + "/solve/batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /solve/batch status = %d", resp.StatusCode)
		}
	}
	resp = postJSON(t, srv.URL+"/solve/batch", BatchRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
}

// pollJob polls GET /jobs/{id} until the job leaves the queue/run states.
func pollJob(t *testing.T, baseURL, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		job := decodeBody[JobResponse](t, resp)
		if job.State == string(jobDone) || job.State == string(jobFailed) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, job.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 8, JobQueue: 4})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: []int32{0, 8}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[JobAccepted](t, resp)
	if acc.ID == "" || acc.Location != "/jobs/"+acc.ID {
		t.Fatalf("accepted = %+v", acc)
	}
	job := pollJob(t, srv.URL, acc.ID)
	if job.State != string(jobDone) || job.Result == nil || job.Result.Total != 11 {
		t.Fatalf("job = %+v", job)
	}
	if job.QueuedSeconds < 0 || job.RunSeconds < 0 {
		t.Fatalf("timings = %+v", job)
	}

	// The async result must have landed in the shared cache: a sync query
	// for the same set is a hit.
	sresp, err := http.Get(srv.URL + "/solve?seeds=8,0")
	if err != nil {
		t.Fatal(err)
	}
	sync := decodeBody[SolveResponse](t, sresp)
	if !sync.Cached || sync.Total != 11 {
		t.Fatalf("sync after async: %+v", sync)
	}

	// A job that fails at solve time (disconnected is impossible on Fig. 1;
	// use a job that resolves but errors: seeds in range, solver error is
	// impossible here — so exercise the failed path via single seed? A
	// single seed succeeds. Instead check unknown-job and method handling.)
	if resp, err := http.Get(srv.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(srv.URL+"/jobs/"+acc.ID, "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /jobs status = %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/solve/async"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /solve/async status = %d", resp.StatusCode)
		}
	}
	st := getStats(t, srv.URL)
	if st.Jobs == nil || st.Jobs.Completed != 1 || st.Jobs.Failed != 0 || st.Jobs.QueueCapacity != 4 {
		t.Fatalf("job stats = %+v", st.Jobs)
	}
}

func TestAsyncDisabledIs404(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: []int32{0, 8}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 when async is disabled", resp.StatusCode)
	}
}

// TestAsyncQueueOverflow429 fills the job queue while the only engine is
// held, and checks the bounded queue pushes back with 429 instead of
// buffering without limit.
func TestAsyncQueueOverflow429(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, JobQueue: 1})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Hold the only engine so the worker cannot drain: the worker may pull
	// one job off the queue and block acquiring an engine; the queue holds
	// one more; the next submission must overflow.
	eng := <-svc.engines
	var ids []string
	overflowed := 0
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: []int32{0, 8}})
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, decodeBody[JobAccepted](t, resp).ID)
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			resp.Body.Close()
			overflowed++
		default:
			resp.Body.Close()
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if overflowed == 0 {
		t.Fatal("queue never overflowed")
	}
	st := getStats(t, srv.URL)
	if st.Jobs == nil || st.Jobs.Rejected != int64(overflowed) {
		t.Fatalf("rejected = %+v, want %d", st.Jobs, overflowed)
	}
	// Release the engine: every accepted job must still complete.
	svc.engines <- eng
	for _, id := range ids {
		if job := pollJob(t, srv.URL, id); job.State != string(jobDone) {
			t.Fatalf("job %s = %+v", id, job)
		}
	}
}

// TestShutdownDrains covers graceful shutdown: queued jobs finish, engines
// are reclaimed and closed, later submissions fail with 503, and repeated
// shutdowns are safe.
func TestShutdownDrains(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 2, CacheEntries: 8, JobQueue: 8})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	var ids []string
	for _, seeds := range [][]int32{{0, 8}, {0, 3}, {2, 5}} {
		resp := postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: seeds})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		ids = append(ids, decodeBody[JobAccepted](t, resp).ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every submitted job ran to completion before the engines closed.
	for _, id := range ids {
		snap, ok := svc.jobs.get(id)
		if !ok || snap.State != jobDone {
			t.Fatalf("job %s after shutdown: %+v (ok=%v)", id, snap, ok)
		}
	}
	// Intake is closed.
	resp := postJSON(t, srv.URL+"/solve/async", SolveRequest{Seeds: []int32{0, 8}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit status = %d, want 503", resp.StatusCode)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestConcurrentBatchAsyncCached is the -race acceptance test: concurrent
// /solve (identical, cache-coalesced), /solve/batch and /solve/async traffic
// against one 2-engine pool, all answers checked for correctness.
func TestConcurrentBatchAsyncCached(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 2, CacheEntries: 32, JobQueue: 32})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Identical cached queries.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/solve?seeds=0,2,3,7,8")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Total != 14 {
				errs <- fmt.Errorf("cached solve total = %d, want 14", out.Total)
			}
		}()
	}
	// Batches with distinct expected answers.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(BatchRequest{Queries: []SolveRequest{
				{Seeds: []int32{0, 8}},
				{Seeds: []int32{2, 5}},
				{Seeds: []int32{0, 3}},
			}})
			resp, err := http.Post(srv.URL+"/solve/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			for j, want := range []int64{11, 2, 11} {
				if out.Results[j].Result == nil || out.Results[j].Result.Total != want {
					errs <- fmt.Errorf("batch item %d: %+v, want total %d", j, out.Results[j], want)
				}
			}
		}()
	}
	// Async jobs, polled to completion.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{Seeds: []int32{0, 2, 3, 7, 8}})
			resp, err := http.Post(srv.URL+"/solve/async", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				resp.Body.Close() // bounded queue pushed back: acceptable under load
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				errs <- fmt.Errorf("async submit status %d", resp.StatusCode)
				return
			}
			var acc JobAccepted
			err = json.NewDecoder(resp.Body).Decode(&acc)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				jr, err := http.Get(srv.URL + "/jobs/" + acc.ID)
				if err != nil {
					errs <- err
					return
				}
				var job JobResponse
				err = json.NewDecoder(jr.Body).Decode(&job)
				jr.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if job.State == string(jobDone) {
					if job.Result == nil || job.Result.Total != 14 {
						errs <- fmt.Errorf("async job result %+v", job.Result)
					}
					return
				}
				if job.State == string(jobFailed) || time.Now().After(deadline) {
					errs <- fmt.Errorf("async job %s: state %s err %q", acc.ID, job.State, job.Error)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := getStats(t, srv.URL)
	if st.InFlight != 0 || st.EnginesIdle != 2 {
		t.Fatalf("pool not quiescent: %+v", st)
	}
	if st.Cache == nil || st.Cache.Hits+st.Cache.Coalesced == 0 {
		t.Fatalf("cache never hit: %+v", st.Cache)
	}
}
