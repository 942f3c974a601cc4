package steinersvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// TestV1SolveTreeDefault checks POST /v1/solve with no mode behaves as a
// tree query and keeps the legacy response shape.
func TestV1SolveTreeDefault(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/solve", SolveRequest{Seeds: []int32{0, 2, 3, 7, 8}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[SolveResponse](t, resp)
	if out.Total != 14 || out.Mode != "" || out.Objective != nil {
		t.Fatalf("tree response carries mode fields: %+v", out)
	}
	// GET is not part of the v1 surface.
	getResp, err := http.Get(srv.URL + "/v1/solve?seeds=0,8")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status = %d", getResp.StatusCode)
	}
}

// TestV1SolveForest checks a forest query end to end through the HTTP
// layer: canonical groups echoed, one edge set per group partitioning the
// full edge list.
func TestV1SolveForest(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/solve", SolveRequest{
		Mode:   "forest",
		Groups: [][]int32{{8, 7}, {4, 0}}, // unsorted: canonicalization must fix
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[SolveResponse](t, resp)
	if out.Mode != "forest" {
		t.Fatalf("mode = %q", out.Mode)
	}
	if !reflect.DeepEqual(out.Groups, [][]int32{{0, 4}, {7, 8}}) {
		t.Fatalf("groups = %v, want canonical [[0 4] [7 8]]", out.Groups)
	}
	if len(out.GroupEdges) != 2 {
		t.Fatalf("groupEdges = %d sets", len(out.GroupEdges))
	}
	var union []TreeEdge
	for _, sub := range out.GroupEdges {
		union = append(union, sub...)
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].U != union[j].U {
			return union[i].U < union[j].U
		}
		return union[i].V < union[j].V
	})
	if !reflect.DeepEqual(union, out.Edges) {
		t.Fatalf("group edges do not partition the tree: %v vs %v", union, out.Edges)
	}
	if out.Objective == nil || *out.Objective != out.Total {
		t.Fatalf("forest objective = %v, want total %d", out.Objective, out.Total)
	}
}

// TestV1SolvePrize checks both prize outcomes over the Fig. 1 graph: cheap
// penalties make skipping optimal, expensive ones keep every terminal.
func TestV1SolvePrize(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()

	// Skipping 0 costs nothing, connecting 0-8 costs 11: skip.
	resp := postJSON(t, srv.URL+"/v1/solve", SolveRequest{
		Mode: "prize", Seeds: []int32{0, 8}, Penalties: []int64{0, 1000000},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[SolveResponse](t, resp)
	if out.Mode != "prize" || !reflect.DeepEqual(out.Skipped, []int32{0}) {
		t.Fatalf("skip case: %+v", out)
	}
	if out.PaidPenalty != 0 || out.Objective == nil || *out.Objective != 0 || out.Total != 0 {
		t.Fatalf("skip case accounting: %+v", out)
	}

	// Both penalties exceed the 0-8 path cost 11: connect everything.
	resp = postJSON(t, srv.URL+"/v1/solve", SolveRequest{
		Mode: "prize", Seeds: []int32{0, 8}, Penalties: []int64{100, 100},
	})
	out = decodeBody[SolveResponse](t, resp)
	if len(out.Skipped) != 0 || out.PaidPenalty != 0 {
		t.Fatalf("keep case skipped %v paid %d", out.Skipped, out.PaidPenalty)
	}
	if out.Total != 11 || out.Objective == nil || *out.Objective != 11 {
		t.Fatalf("keep case total %d objective %v, want 11", out.Total, out.Objective)
	}
}

// TestV1SolvePenaltyBound checks core.MaxPenaltySum over HTTP: penalties
// summing to the bound solve (too large to skip anything, so the tree
// query's answer), one more is a 400 invalid_argument.
func TestV1SolvePenaltyBound(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	seeds := []int32{0, 4, 8}
	third := int64(core.MaxPenaltySum) / 3
	tree := decodeBody[SolveResponse](t, postJSON(t, srv.URL+"/v1/solve", SolveRequest{Seeds: seeds}))

	resp := postJSON(t, srv.URL+"/v1/solve", SolveRequest{
		Mode: "prize", Seeds: seeds, Penalties: []int64{third, third, int64(core.MaxPenaltySum) - 2*third},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at the bound: status = %d", resp.StatusCode)
	}
	out := decodeBody[SolveResponse](t, resp)
	if len(out.Skipped) != 0 || out.Objective == nil || *out.Objective != tree.Total || !reflect.DeepEqual(out.Edges, tree.Edges) {
		t.Fatalf("at the bound: skipped %v objective %v, want the tree query's %d", out.Skipped, out.Objective, tree.Total)
	}

	resp = postJSON(t, srv.URL+"/v1/solve", SolveRequest{
		Mode: "prize", Seeds: seeds, Penalties: []int64{third, third, int64(core.MaxPenaltySum) - 2*third + 1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bound + 1: status = %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeInvalidArgument || !strings.Contains(e.Message, "MaxPenaltySum") {
		t.Fatalf("bound + 1: error %+v", e)
	}
}

// TestV1SolveValidation checks the mode-aware request validation and the
// structured error body.
func TestV1SolveValidation(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	for _, tc := range []struct {
		name   string
		req    SolveRequest
		status int
		code   string
		msg    string
	}{
		{"unknown mode", SolveRequest{Mode: "lasso", Seeds: []int32{0}},
			http.StatusBadRequest, CodeInvalidArgument, "unknown query mode"},
		{"forest without groups", SolveRequest{Mode: "forest"},
			http.StatusBadRequest, CodeInvalidArgument, "forest mode needs groups"},
		{"forest with k", SolveRequest{Mode: "forest", Groups: [][]int32{{0}}, K: 3},
			http.StatusBadRequest, CodeInvalidArgument, "not seeds, k or penalties"},
		{"prize without penalties", SolveRequest{Mode: "prize", Seeds: []int32{0, 8}},
			http.StatusBadRequest, CodeInvalidArgument, "one penalty per seed"},
		{"prize negative penalty", SolveRequest{Mode: "prize", Seeds: []int32{0}, Penalties: []int64{-1}},
			http.StatusBadRequest, CodeInvalidArgument, "negative penalty"},
		{"tree with penalties", SolveRequest{Seeds: []int32{0}, Penalties: []int64{1}},
			http.StatusBadRequest, CodeInvalidArgument, "not groups or penalties"},
		{"bad quality", SolveRequest{Seeds: []int32{0, 8}, Quality: "exact"},
			http.StatusBadRequest, CodeInvalidArgument, "unknown quality"},
		{"forest dup across groups", SolveRequest{Mode: "forest", Groups: [][]int32{{0, 4}, {4, 8}}},
			http.StatusBadRequest, CodeInvalidArgument, "more than once"},
		{"forest empty group", SolveRequest{Mode: "forest", Groups: [][]int32{{1, 2}, {}}},
			http.StatusBadRequest, CodeInvalidArgument, "group 1 is empty"},
		{"forest seed out of range", SolveRequest{Mode: "forest", Groups: [][]int32{{1, 2}, {99999}}},
			http.StatusUnprocessableEntity, CodeUnsolvable, "out of range"},
	} {
		resp := postJSON(t, srv.URL+"/v1/solve", tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
			resp.Body.Close()
			continue
		}
		errResp := decodeBody[ErrorResponse](t, resp)
		if errResp.Code != tc.code || !strings.Contains(errResp.Message, tc.msg) {
			t.Errorf("%s: error = %+v, want code %q message %q", tc.name, errResp, tc.code, tc.msg)
		}
	}
}

// TestTrailingJSONRejected checks every JSON-body endpoint takes exactly one
// value: a well-formed query followed by anything but whitespace is a 400
// invalid_argument, while trailing whitespace is not.
func TestTrailingJSONRejected(t *testing.T) {
	srv := httptest.NewServer(testServiceCfg(t, Config{Engines: 1, JobQueue: 4}))
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/solve", `{"seeds":[1,2]} trailing`},
		{"/v1/solve", `{"seeds":[1,2]} trailing`},
		{"/v1/solve", `{"seeds":[1,2]}{"seeds":[3,4]}`},
		{"/solve/batch", `{"queries":[{"seeds":[1,2]}]} trailing`},
		{"/solve/async", `{"seeds":[1,2]} trailing`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Errorf("%s %q: status = %d, want 400", tc.path, tc.body, resp.StatusCode)
			continue
		}
		if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeInvalidArgument || !strings.Contains(e.Message, "bad JSON body") {
			t.Errorf("%s %q: error %+v", tc.path, tc.body, e)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader("{\"seeds\":[1,2]}\n \n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status = %d, want 200", resp.StatusCode)
	}
}

// FuzzSolveV1 sends raw bodies to POST /v1/solve on the Fig. 1 service. A 200
// must carry a valid tree for the spec it answers (per group for forest, over
// the kept terminals with objective = total + paid penalties for prize);
// anything else must be a 4xx with the {code, message} envelope. No body may
// produce a 5xx or a panic.
func FuzzSolveV1(f *testing.F) {
	for _, body := range []string{
		`{"seeds":[1,2,3]}`,
		`{"k":5,"strategy":"eccentric","rngSeed":7}`,
		`{"mode":"forest","groups":[[1,2],[7,8]]}`,
		`{"mode":"prize","seeds":[1,2,8],"penalties":[3,5,1000]}`,
		`{"mode":"forest","groups":[[0,4],[]]}`,
		`{"mode":"forest","groups":[[0],[8]]}`,
		`{"seeds":[0,2147483647]}`,
		`{"mode":"prize","seeds":[0,8],"penalties":[9223372036854775807,0]}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	g := testGraph(f)
	svc := testService(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var e ErrorResponse
			if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code == "" || e.Message == "" {
				t.Fatalf("body %q: status %d, reply %q", body, rec.Code, rec.Body.String())
			}
			return
		}
		var req SolveRequest
		var out SolveResponse
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if err := validV1Answer(g, req, out); err != nil {
			t.Fatalf("body %q: %v\nreply %s", body, err, rec.Body.String())
		}
	})
}

// validV1Answer checks a 200 reply against the request it answers.
func validV1Answer(g *graph.Graph, req SolveRequest, out SolveResponse) error {
	vids := func(ids []int32) []graph.VID {
		vs := make([]graph.VID, len(ids))
		for i, id := range ids {
			vs[i] = graph.VID(id)
		}
		return vs
	}
	edges := func(es []TreeEdge) ([]graph.Edge, int64) {
		ge, total := make([]graph.Edge, len(es)), int64(0)
		for i, e := range es {
			ge[i], total = graph.Edge{U: graph.VID(e.U), V: graph.VID(e.V), W: e.W}, total+int64(e.W)
		}
		return ge, total
	}
	tree, total := edges(out.Edges)
	if total != out.Total {
		return fmt.Errorf("edges weigh %d, total says %d", total, out.Total)
	}
	switch req.Mode {
	case "forest":
		var want, got []int32
		for _, grp := range req.Groups {
			want = append(want, grp...)
		}
		for _, grp := range out.Groups {
			got = append(got, grp...)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) || len(out.GroupEdges) != len(out.Groups) {
			return fmt.Errorf("groups %v / %d group trees answer groups %v", out.Groups, len(out.GroupEdges), req.Groups)
		}
		for gi, grp := range out.Groups {
			sub, _ := edges(out.GroupEdges[gi])
			if err := graph.ValidateSteinerTree(g, vids(grp), sub); err != nil {
				return fmt.Errorf("group %d: %w", gi, err)
			}
		}
		return nil
	case "prize":
		var kept []int32
		paid := int64(0)
		for i, s := range req.Seeds {
			if slices.Contains(out.Skipped, s) {
				paid += req.Penalties[i]
			} else {
				kept = append(kept, s)
			}
		}
		if out.PaidPenalty != paid || out.Objective == nil || *out.Objective != total+paid {
			return fmt.Errorf("paid %d objective %v, want paid %d objective %d", out.PaidPenalty, out.Objective, paid, total+paid)
		}
		return graph.ValidateSteinerTree(g, vids(kept), tree)
	}
	terms := req.Seeds
	if len(terms) == 0 {
		terms = out.Seeds // k server-selected terminals
	}
	return graph.ValidateSteinerTree(g, vids(terms), tree)
}

// TestLegacySolveResponseShapePinned pins the legacy /solve contract: a
// tree query's JSON carries exactly the pre-mode field set — no mode,
// groups, objective or other new keys may leak in — and error bodies are
// the structured {code, message} form.
func TestLegacySolveResponseShapePinned(t *testing.T) {
	srv := httptest.NewServer(testService(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve?seeds=0,8")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"edges", "phases", "seeds", "steinerVertices", "total"}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy /solve keys = %v, want exactly %v", got, want)
	}

	// The same query through /v1/solve returns the identical body modulo
	// phase timings (both uncached solves of a canonical query).
	v1 := postJSON(t, srv.URL+"/v1/solve", SolveRequest{Seeds: []int32{0, 8}})
	v1out := decodeBody[SolveResponse](t, v1)
	var legacy SolveResponse
	if err := json.Unmarshal(body, &legacy); err != nil {
		t.Fatal(err)
	}
	if v1out.Total != legacy.Total || !reflect.DeepEqual(v1out.Edges, legacy.Edges) ||
		!reflect.DeepEqual(v1out.Seeds, legacy.Seeds) {
		t.Fatalf("/v1/solve tree answer differs from legacy /solve:\n%+v\n%+v", v1out, legacy)
	}

	// Errors are structured now, on legacy endpoints too.
	resp, err = http.Get(srv.URL + "/solve?seeds=0,0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate-seed status = %d", resp.StatusCode)
	}
	errResp := decodeBody[ErrorResponse](t, resp)
	if errResp.Code != CodeInvalidArgument || !strings.Contains(errResp.Message, "duplicate") {
		t.Fatalf("duplicate-seed error = %+v", errResp)
	}
}

// TestCacheKeysModesEndToEnd is the solution-cache regression through the
// HTTP layer: a forest query and a tree query over the same vertex set get
// distinct cache entries, while a repeated forest query hits.
func TestCacheKeysModesEndToEnd(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 16})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	treeReq := SolveRequest{Seeds: []int32{0, 4, 7, 8}}
	forestReq := SolveRequest{Mode: "forest", Groups: [][]int32{{0, 4}, {7, 8}}}

	warm := decodeBody[SolveResponse](t, postJSON(t, srv.URL+"/v1/solve", treeReq))
	if warm.Cached {
		t.Fatal("first tree query cached")
	}
	forest := decodeBody[SolveResponse](t, postJSON(t, srv.URL+"/v1/solve", forestReq))
	if forest.Cached {
		t.Fatal("forest query over the same vertex set hit the tree query's cache entry")
	}
	if forest.Total >= warm.Total {
		// Forest drops the cross-group connection, so it must be cheaper
		// than the tree spanning all four terminals here.
		t.Fatalf("forest total %d >= tree total %d", forest.Total, warm.Total)
	}
	again := decodeBody[SolveResponse](t, postJSON(t, srv.URL+"/v1/solve", forestReq))
	if !again.Cached {
		t.Fatal("repeated forest query missed the cache")
	}
	if again.Total != forest.Total || !reflect.DeepEqual(again.GroupEdges, forest.GroupEdges) {
		t.Fatalf("cached forest reply differs: %+v vs %+v", again, forest)
	}
	treeAgain := decodeBody[SolveResponse](t, postJSON(t, srv.URL+"/solve", treeReq))
	if !treeAgain.Cached || treeAgain.Total != warm.Total {
		t.Fatalf("legacy /solve missed the v1-warmed tree entry: %+v", treeAgain)
	}
}

// TestBatchAndAsyncAcceptSpecs checks the batch and async endpoints carry
// full query specs: a mixed-mode batch answers each item in its own mode,
// and an async forest job completes with forest output.
func TestBatchAndAsyncAcceptSpecs(t *testing.T) {
	svc := testServiceCfg(t, Config{Engines: 1, CacheEntries: 16, JobQueue: 4})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	batch := decodeBody[BatchResponse](t, postJSON(t, srv.URL+"/solve/batch", BatchRequest{
		Queries: []SolveRequest{
			{Seeds: []int32{0, 8}},
			{Mode: "forest", Groups: [][]int32{{0, 4}, {7, 8}}},
			{Mode: "prize", Seeds: []int32{0, 8}, Penalties: []int64{0, 1000000}},
			{Mode: "prize", Seeds: []int32{0}}, // invalid: no penalties
		},
	}))
	if len(batch.Results) != 4 {
		t.Fatalf("results = %d", len(batch.Results))
	}
	if r := batch.Results[0].Result; r == nil || r.Mode != "" || r.Total != 11 {
		t.Fatalf("tree item: %+v", batch.Results[0])
	}
	if r := batch.Results[1].Result; r == nil || r.Mode != "forest" || len(r.GroupEdges) != 2 {
		t.Fatalf("forest item: %+v", batch.Results[1])
	}
	if r := batch.Results[2].Result; r == nil || r.Mode != "prize" || !reflect.DeepEqual(r.Skipped, []int32{0}) {
		t.Fatalf("prize item: %+v", batch.Results[2])
	}
	if e := batch.Results[3].Error; !strings.Contains(e, "one penalty per seed") {
		t.Fatalf("invalid item error = %q", e)
	}

	accepted := decodeBody[JobAccepted](t, postJSON(t, srv.URL+"/solve/async",
		SolveRequest{Mode: "forest", Groups: [][]int32{{0, 4}, {7, 8}}}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		jr := decodeBody[JobResponse](t, resp)
		if jr.State == "done" {
			if jr.Result == nil || jr.Result.Mode != "forest" || len(jr.Result.GroupEdges) != 2 {
				t.Fatalf("async forest result: %+v", jr.Result)
			}
			break
		}
		if jr.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q (error %q)", jr.State, jr.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
