package serve

// HTTP round-trip regressions: the JSON wire format must preserve the
// bitwise doctrine (float64 values survive encode/decode exactly), the
// checkpoint-file swap endpoint must hot-swap a live model, error mapping
// must follow statusOf, and the served Max-Cut solve must equal the direct
// solver call.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// postJSON issues one JSON POST and decodes the response body into out
// when the status matches.
func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any, wantStatus int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d, want %d (%s)", path, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
}

// serveModel is served as model "m", behind an httptest server that
// closes when the test ends.
func serveModel(t *testing.T, cfg ServerConfig, spec ModelSpec) (*Server, *httptest.Server) {
	t.Helper()
	s := served(t, cfg, "m", spec)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPBitwiseRoundTrip(t *testing.T) {
	const n, h = 10, 12
	wf := buildWF("made", n, h, 81)
	ham := hamiltonian.RandomTIM(n, rng.New(82))
	s, ts := serveModel(t, ServerConfig{}, ModelSpec{WF: wf, Ham: ham})

	cfgs := clientConfigs(0, 3, n)
	wantLP := directLogPsi(wf, cfgs)
	b := sampler.NewBatch(len(cfgs), n)
	for k, row := range cfgs {
		copy(b.Row(k), row)
	}
	wantEN := make([]float64, b.N)
	core.NewBatchedEval(wf, core.EvalAuto, 1).LocalEnergies(ham, b, 1, wantEN)

	var lp valuesResponse
	postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: cfgs}, &lp, http.StatusOK)
	for k := range lp.Values {
		if lp.Values[k] != wantLP[k] {
			t.Fatalf("logpsi row %d: wire %v != direct %v (float64 bits lost in JSON)", k, lp.Values[k], wantLP[k])
		}
	}
	var en valuesResponse
	postJSON(t, ts, "/v1/models/m/energy", configsRequest{Configs: cfgs}, &en, http.StatusOK)
	for k := range en.Values {
		if en.Values[k] != wantEN[k] {
			t.Fatalf("energy row %d: wire %v != direct %v", k, en.Values[k], wantEN[k])
		}
	}

	// Sampling over the wire == direct in-process serve call.
	wantSM, err := s.Sample(t.Context(), "m", 4, 999)
	if err != nil {
		t.Fatal(err)
	}
	var sm sampleResponse
	postJSON(t, ts, "/v1/models/m/sample", sampleRequest{Count: 4, Seed: 999}, &sm, http.StatusOK)
	if len(sm.Configs) != len(wantSM) {
		t.Fatalf("sample rows %d, want %d", len(sm.Configs), len(wantSM))
	}
	for k := range sm.Configs {
		for i := range sm.Configs[k] {
			if sm.Configs[k][i] != wantSM[k][i] {
				t.Fatalf("sample row %d bit %d differs over the wire", k, i)
			}
		}
	}

	// Health, model list and stats endpoints respond.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	var models []ModelInfo
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models) != 1 || models[0].Name != "m" || models[0].Sites != n {
		t.Fatalf("model list %+v", models)
	}
	var st Stats
	resp, err = http.Get(ts.URL + "/v1/models/m/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests == 0 {
		t.Fatal("stats show no requests after traffic")
	}
}

func TestHTTPSwapFromCheckpoint(t *testing.T) {
	const n, h = 8, 10
	live := buildWF("made", n, h, 91)
	next := buildWF("made", n, h, 92)
	cfgs := clientConfigs(1, 2, n)
	wantNew := directLogPsi(next, cfgs)

	dir := t.TempDir()
	path := filepath.Join(dir, "next.ckpt")
	if err := nn.SaveFile(path, next); err != nil {
		t.Fatal(err)
	}

	_, ts := serveModel(t, ServerConfig{CheckpointDir: dir}, ModelSpec{WF: live})

	// Swap paths are relative to the configured checkpoint directory.
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: "next.ckpt"}, nil, http.StatusOK)
	var lp valuesResponse
	postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: cfgs}, &lp, http.StatusOK)
	for k := range lp.Values {
		if lp.Values[k] != wantNew[k] {
			t.Fatalf("post-swap row %d: %v != checkpoint params %v", k, lp.Values[k], wantNew[k])
		}
	}
	// Swapping a missing file is a client error, and the live model keeps
	// serving afterwards.
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: "missing.ckpt"}, nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: cfgs}, &lp, http.StatusOK)
	// Paths that escape the checkpoint directory are rejected without
	// touching the filesystem: absolute and ".."-relative alike.
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: path}, nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: "../next.ckpt"}, nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: "/etc/passwd"}, nil, http.StatusBadRequest)
}

// TestSwapRefusesNonFiniteParams: a checkpoint holding -Inf at W1[0][0]
// is refused over HTTP (400) and an in-process model holding one is
// refused by Swap; after each refusal the running model serves exactly
// what it served before.
func TestSwapRefusesNonFiniteParams(t *testing.T) {
	const n, h = 8, 10
	live := buildWF("made", n, h, 91)
	cfgs := clientConfigs(1, 2, n)
	wantOld := directLogPsi(live, cfgs)
	bad := buildWF("made", n, h, 92)
	bad.Params()[0] = math.Inf(-1)
	dir := t.TempDir()
	if err := nn.SaveFile(filepath.Join(dir, "bad.ckpt"), bad); err != nil {
		t.Fatal(err)
	}
	s, ts := serveModel(t, ServerConfig{CheckpointDir: dir}, ModelSpec{WF: live})
	unmoved := func(after string) {
		t.Helper()
		var lp valuesResponse
		postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: cfgs}, &lp, http.StatusOK)
		for k := range lp.Values {
			if lp.Values[k] != wantOld[k] {
				t.Fatalf("after %s: row %d serves %v, the running model served %v", after, k, lp.Values[k], wantOld[k])
			}
		}
	}
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: "bad.ckpt"}, nil, http.StatusBadRequest)
	unmoved("the refused file swap")
	if err := s.Swap(context.Background(), "m", bad); err == nil {
		t.Fatal("Swap onto a -Inf parameter succeeded")
	}
	unmoved("the refused in-process swap")
}

func TestHTTPSwapDisabledByDefault(t *testing.T) {
	const n, h = 8, 10
	path := filepath.Join(t.TempDir(), "next.ckpt")
	if err := nn.SaveFile(path, buildWF("made", n, h, 92)); err != nil {
		t.Fatal(err)
	}
	// No CheckpointDir: the swap endpoint must not reach the filesystem at
	// all, even for a path that exists and parses.
	_, ts := serveModel(t, ServerConfig{}, ModelSpec{WF: buildWF("made", n, h, 91)})
	postJSON(t, ts, "/v1/models/m/swap", swapRequest{Path: path}, nil, http.StatusBadRequest)
}

func TestHTTPErrorMapping(t *testing.T) {
	const n, h = 8, 10
	s, ts := serveModel(t, ServerConfig{}, ModelSpec{WF: buildWF("made", n, h, 95)})

	cfgs := clientConfigs(0, 1, n)
	// Unknown model -> 404.
	postJSON(t, ts, "/v1/models/nope/logpsi", configsRequest{Configs: cfgs}, nil, http.StatusNotFound)
	// Bad configs -> 400.
	postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: [][]int{{0, 2}}}, nil, http.StatusBadRequest)
	// Unknown JSON field, or anything but whitespace after the one JSON
	// value -> 400 bad JSON; trailing whitespace is fine.
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/models/m/logpsi", `{"configs": [[0,1,0,1,0,1,0,1]], "bogus": 1}`, http.StatusBadRequest},
		{"/v1/models/m/sample", `{"count":2,"seed":1} trailing-garbage`, http.StatusBadRequest},
		{"/v1/models/m/sample", `{"count":2,"seed":1}{"count":3}`, http.StatusBadRequest},
		{"/v1/models/m/sample", "{\"count\":2,\"seed\":1} \r\n\t", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want || (c.want != http.StatusOK && !strings.HasPrefix(e.Error, "bad JSON")) {
			t.Fatalf("body %q: status %d (%q), want %d", c.body, resp.StatusCode, e.Error, c.want)
		}
	}
	// Energy without a Hamiltonian -> 400 (unsupported).
	postJSON(t, ts, "/v1/models/m/energy", configsRequest{Configs: cfgs}, nil, http.StatusBadRequest)
	// A non-finite value, which encoding/json refuses -> 500 carrying the
	// error JSON, never a 200 with a truncated body.
	poisoned := buildWF("made", n, h, 96)
	poisoned.Params()[0] = math.NaN()
	nn.InvalidateParams(poisoned)
	if err := s.Register("nan", ModelSpec{WF: poisoned}); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(configsRequest{Configs: [][]int{{1, 1, 1, 1, 1, 1, 1, 1}}})
	resp, err := http.Post(ts.URL+"/v1/models/nan/logpsi", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decErr != nil || e.Error == "" {
		t.Fatalf("NaN payload: status %d, body error %q (decode: %v); want 500 with an error body",
			resp.StatusCode, e.Error, decErr)
	}
	// A healthy response is byte for byte what json.Encoder writes.
	rec, want := httptest.NewRecorder(), new(bytes.Buffer)
	healthy := valuesResponse{Values: []float64{-1.5, 0.1, 3e-9}}
	writeJSON(rec, http.StatusOK, healthy)
	_ = json.NewEncoder(want).Encode(healthy)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("healthy body %q (status %d), want %q", rec.Body.Bytes(), rec.Code, want.Bytes())
	}
	// A repeated vertex pair -> 400, in either orientation and whatever
	// its weights: a request names each pair once, and the graph would
	// silently add the two weights.
	for _, algo := range []string{"random", "gw", "bm"} {
		for _, edges := range [][]MaxCutEdge{
			{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}},
			{{U: 0, V: 1, W: 3}, {U: 0, V: 1, W: -1}, {U: 1, V: 2, W: 1}},
		} {
			req := MaxCutRequest{N: 3, Edges: edges, Algorithm: algo, Seed: 3}
			postJSON(t, ts, "/v1/maxcut", req, nil, http.StatusBadRequest)
		}
	}
	// Finite weights whose cut overflows float64 -> 400, never a 500 from
	// a response encoding/json refuses: 1e308 on a triangle drives gw's cut
	// to +Inf. Weights whose cut fits are solved whatever their squares
	// do: 1e154 on K6 made bm's SDP bound NaN before the solve was scaled
	// by max|w|, and is a 200 with the cut 9w and a finite bound now.
	for _, c := range []struct {
		n      int
		w      float64
		algo   string
		status int
	}{{3, 1e308, "gw", http.StatusBadRequest}, {6, 1e154, "bm", http.StatusOK}} {
		var edges []MaxCutEdge
		for u := 0; u < c.n; u++ {
			for v := u + 1; v < c.n; v++ {
				edges = append(edges, MaxCutEdge{U: u, V: v, W: c.w})
			}
		}
		var got MaxCutResult
		postJSON(t, ts, "/v1/maxcut", MaxCutRequest{N: c.n, Edges: edges, Algorithm: c.algo, Seed: 1}, &got, c.status)
		if c.status == http.StatusOK && (got.Cut != 9*c.w || !finite(got.SDPBound)) {
			t.Fatalf("K6 at w %g: cut %v (want %v), SDP bound %v", c.w, got.Cut, 9*c.w, got.SDPBound)
		}
	}
	// Drained server -> 503.
	s.Close()
	postJSON(t, ts, "/v1/models/m/logpsi", configsRequest{Configs: cfgs}, nil, http.StatusServiceUnavailable)
}

func TestHTTPMaxCutMatchesDirect(t *testing.T) {
	const nVerts, seed = 24, 4242
	_, ts := serveModel(t, ServerConfig{}, ModelSpec{})

	// A deterministic instance, built identically for serve and direct.
	g := graph.New(nVerts)
	r := rng.New(7)
	var edges []MaxCutEdge
	for u := 0; u < nVerts; u++ {
		for v := u + 1; v < nVerts; v++ {
			if r.Float64() < 0.3 {
				w := r.Float64()
				g.AddEdge(u, v, w)
				edges = append(edges, MaxCutEdge{U: u, V: v, W: w})
			}
		}
	}
	for _, algo := range []string{"random", "gw", "bm"} {
		var got MaxCutResult
		postJSON(t, ts, "/v1/maxcut", MaxCutRequest{N: nVerts, Edges: edges, Algorithm: algo, Seed: seed}, &got, http.StatusOK)
		want, err := maxcut.Solve(g, algo, maxcut.Config{}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cut != want.Cut {
			t.Fatalf("%s: served cut %v != direct %v", algo, got.Cut, want.Cut)
		}
		if len(got.Assignment) != len(want.Assignment) {
			t.Fatalf("%s: assignment length %d != %d", algo, len(got.Assignment), len(want.Assignment))
		}
		for i := range got.Assignment {
			if got.Assignment[i] != want.Assignment[i] {
				t.Fatalf("%s: assignment[%d] %d != %d", algo, i, got.Assignment[i], want.Assignment[i])
			}
		}
		if got.SDPBound != want.SDPBound {
			t.Fatalf("%s: SDP bound %v != %v", algo, got.SDPBound, want.SDPBound)
		}
	}
	// Validation teeth on the endpoint.
	postJSON(t, ts, "/v1/maxcut", MaxCutRequest{N: 1, Edges: edges, Seed: 1}, nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/maxcut", MaxCutRequest{N: 4, Edges: []MaxCutEdge{{U: 0, V: 9, W: 1}}, Seed: 1}, nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/maxcut", MaxCutRequest{N: nVerts, Edges: edges, Algorithm: "nope", Seed: 1}, nil, http.StatusBadRequest)
}

// TestHTTPResourceBounds pins the admission-before-allocation hardening:
// a single small request must never cost a request-proportional
// allocation the server would reject anyway. Each case here would
// allocate gigabytes (or read an unbounded body) if validation ran after
// the allocation instead of before.
func TestHTTPResourceBounds(t *testing.T) {
	const n, h = 8, 10
	ham := hamiltonian.RandomTIM(n, rng.New(11))
	s, ts := serveModel(t, ServerConfig{MaxCutNodes: 64}, ModelSpec{WF: buildWF("made", n, h, 13), Ham: ham})

	// A huge vertex count is rejected before anything n-sized is built.
	postJSON(t, ts, "/v1/maxcut",
		MaxCutRequest{N: 1_000_000, Edges: []MaxCutEdge{{U: 0, V: 1, W: 1}}, Seed: 1},
		nil, http.StatusBadRequest)
	// A vertex count just over the configured cap is rejected; at the cap
	// it solves.
	postJSON(t, ts, "/v1/maxcut",
		MaxCutRequest{N: 65, Edges: []MaxCutEdge{{U: 0, V: 1, W: 1}}, Seed: 1},
		nil, http.StatusBadRequest)
	postJSON(t, ts, "/v1/maxcut",
		MaxCutRequest{N: 64, Edges: []MaxCutEdge{{U: 0, V: 1, W: 1}}, Algorithm: "random", Seed: 1},
		nil, http.StatusOK)
	// The solver knobs are bounded before admission: a rank above n would
	// size the n x rank factorization past n x n (rank 2^33 at n=2 is a
	// 137 GB block), and unbounded rounds or iterations would hold a
	// solver slot indefinitely. The rows sit just outside the bounds, so
	// each is cheap to solve should validation ever admit it; just inside
	// the bounds it solves.
	tiny := []MaxCutEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	for _, req := range []MaxCutRequest{
		{Rank: 4}, {Rank: -1},
		{Rounds: 10_001}, {Rounds: -1}, {Rounds: 10_001, Algorithm: "bm"},
		{MaxIter: 10_001}, {MaxIter: 10_001, Algorithm: "bm"}, {MaxIter: -1},
	} {
		req.N, req.Edges, req.Seed = 3, tiny, 1
		postJSON(t, ts, "/v1/maxcut", req, nil, http.StatusBadRequest)
	}
	for _, algo := range []string{"gw", "bm"} {
		postJSON(t, ts, "/v1/maxcut",
			MaxCutRequest{N: 3, Edges: tiny, Algorithm: algo, Rank: 3, Rounds: 10_000, MaxIter: 100, Seed: 1},
			nil, http.StatusOK)
	}

	// A huge sample count is shed with 429 before the count*sites buffers
	// and uniform draws (1e9 rows would be tens of GB).
	postJSON(t, ts, "/v1/models/m/sample", sampleRequest{Count: 1_000_000_000, Seed: 1}, nil, http.StatusTooManyRequests)
	var st Stats
	var err error
	if st, err = s.ModelStats("m"); err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("oversize sample count not counted as an admission rejection")
	}

	// A body over the size cap is refused with 413 instead of buffered.
	huge := append([]byte(`{"configs": [[`), bytes.Repeat([]byte("0,"), maxBodyBytes/2)...)
	resp, err := http.Post(ts.URL+"/v1/models/m/logpsi", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
}

// TestMaxCutFootprint holds a served solve to its request's size: n = 4096
// with one edge and the random method allocates at most 1 MiB, where an
// n x n structure would be 16 MiB or more.
func TestMaxCutFootprint(t *testing.T) {
	s := NewServer(ServerConfig{})
	defer s.Close()
	req := MaxCutRequest{N: 4096, Edges: []MaxCutEdge{{U: 0, V: 1, W: 1}}, Algorithm: "random", Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.SolveMaxCut(context.Background(), req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("SolveMaxCut(n=%d, one edge, random) allocated %d bytes, over 1 MiB", req.N, got)
	}
}

// padBody pads body with trailing spaces to exactly size bytes.
func padBody(body string, size int) []byte {
	return append([]byte(body), bytes.Repeat([]byte(" "), size-len(body))...)
}

// TestHTTPBodyCapBoundary pins the body cap at its edge: a valid logpsi body
// padded with trailing whitespace to exactly maxBodyBytes is decoded and
// served, and the same body one byte longer is a 413.
func TestHTTPBodyCapBoundary(t *testing.T) {
	const n, h = 4, 6
	s := served(t, ServerConfig{}, "m", ModelSpec{WF: buildWF("made", n, h, 5)})
	handler := NewHandler(s)
	const body = `{"configs":[[0,1,0,1]]}`
	for _, tc := range []struct {
		size int
		want int
	}{
		{len(body), http.StatusOK},
		{maxBodyBytes, http.StatusOK},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/m/logpsi",
			bytes.NewReader(padBody(body, tc.size))))
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d, want %d (%s)", tc.size, rec.Code, tc.want, rec.Body.Bytes())
		}
	}
}
