package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// testBase is a small valid configuration; distinct seeds give
// distinct content keys.
func testBase(seed uint64) sim.Config {
	return sim.Config{
		System:         memsys.NDP,
		Cores:          1,
		Mechanism:      core.Radix,
		Workload:       "rnd",
		FootprintBytes: 64 << 20,
		MemoryBytes:    1 << 30,
		Warmup:         500,
		Instructions:   2_000,
		Seed:           seed,
	}
}

// fakeResult fabricates a result whose content address matches cfg.
func fakeResult(cfg sim.Config) *sim.Result {
	n := cfg.Normalize()
	return &sim.Result{Config: n, Cycles: 1000 + n.Seed}
}

// gate is a Simulate stub that counts calls and blocks each run until
// released.
type gate struct {
	calls   atomic.Int64
	release chan struct{}
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) simulate(cfg sim.Config) (*sim.Result, error) {
	g.calls.Add(1)
	<-g.release
	return fakeResult(cfg), nil
}

// instantSim counts calls and returns immediately.
func instantSim(calls *atomic.Int64) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return fakeResult(cfg), nil
	}
}

// newTestServer builds a Server plus an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		opts.Store = sweep.NewMemStore()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// waitFor blocks until cond holds, re-checking on a ticker channel and
// bailing at the deadline — a select over channels, not a bare sleep
// loop, so a heavily loaded CI machine delays the check instead of
// missing the window.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// postSim posts cfg to /v1/sim and returns the response.
func postSim(t *testing.T, base string, cfg sim.Config) *http.Response {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sim", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// simulateRemotely runs cfg through a fresh RemoteStore against s,
// behind a front end that counts POSTs. It returns the POST count, the
// client's counters and Simulate's error.
func simulateRemotely(t *testing.T, s *Server, cfg sim.Config) (int64, sweep.RemoteStats, error) {
	t.Helper()
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	remote, err := sweep.NewRemoteStore(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.Simulate(cfg)
	return posts.Load(), remote.Stats(), err
}

// decodeBody decodes a result response body.
func decodeBody(t *testing.T, resp *http.Response) *sim.Result {
	t.Helper()
	defer resp.Body.Close()
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestSingleflightCollapse is the dedupe contract: N concurrent
// identical cold requests cost exactly one simulation, and every
// request receives the one result.
func TestSingleflightCollapse(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, Options{Simulate: g.simulate, Workers: 2})

	const n = 8
	cfg := testBase(7)
	var wg sync.WaitGroup
	results := make([]*sim.Result, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSim(t, ts.URL, cfg)
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				results[i] = decodeBody(t, resp)
			} else {
				resp.Body.Close()
			}
		}(i)
	}

	// All n requests miss and attach to one flight: 1 scheduled, n-1
	// collapsed. Only then release the simulation.
	waitFor(t, "all requests attached", func() bool {
		return s.Snapshot().Collapses == n-1
	})
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("simulations started before release: %d, want 1", got)
	}
	close(g.release)
	wg.Wait()

	want := fakeResult(cfg)
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if results[i].Cycles != want.Cycles {
			t.Fatalf("request %d: cycles %d, want %d", i, results[i].Cycles, want.Cycles)
		}
	}
	snap := s.Snapshot()
	if g.calls.Load() != 1 || snap.Simulations != 1 {
		t.Errorf("simulations = %d (stub %d), want 1", snap.Simulations, g.calls.Load())
	}
	if snap.Misses != n || snap.Collapses != n-1 {
		t.Errorf("misses/collapses = %d/%d, want %d/%d", snap.Misses, snap.Collapses, n, n-1)
	}
	// The result landed in the store: the next request is a pure hit.
	resp := postSim(t, ts.URL, cfg)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-flight request: status %d, X-Cache %q, want warm hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp.Body.Close()
}

// TestFailedSimulationIsFinal: a simulation that fails with a plain
// error, not a panic, is as final as a panic. The server marks its 500
// X-Sim-Permanent, and a RemoteStore client returns a RunError after
// one POST, with no backoff and no local run.
func TestFailedSimulationIsFinal(t *testing.T) {
	s, ts := newTestServer(t, Options{Simulate: func(sim.Config) (*sim.Result, error) {
		return nil, errors.New("no machine for this configuration")
	}})
	resp := postSim(t, ts.URL, testBase(4))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Sim-Permanent") != "true" {
		t.Errorf("failed run: %d %q, X-Sim-Permanent %q; want 500 marked true",
			resp.StatusCode, body, resp.Header.Get("X-Sim-Permanent"))
	}

	posts, stats, err := simulateRemotely(t, s, testBase(4))
	var re *sweep.RunError
	if !errors.As(err, &re) {
		t.Errorf("remote Simulate: err = %v, want a RunError", err)
	}
	if posts != 1 || stats.Retries != 0 || stats.LocalSims != 0 {
		t.Errorf("remote client made %d POSTs, %d retries, %d local runs; want 1, 0, 0",
			posts, stats.Retries, stats.LocalSims)
	}
}

// TestWarmKeyNoScheduling: GETs and warm sims never touch the worker
// pool.
func TestWarmKeyNoScheduling(t *testing.T) {
	var calls atomic.Int64
	store := sweep.NewMemStore()
	cfg := testBase(1)
	key := cfg.Key()
	if err := store.Put(key, fakeResult(cfg)); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Store: store, Simulate: instantSim(&calls)})

	resp, err := http.Get(ts.URL + "/v1/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET: status %d", resp.StatusCode)
	}
	if got := decodeBody(t, resp).Cycles; got != 1001 {
		t.Fatalf("warm GET cycles %d, want 1001", got)
	}

	resp = postSim(t, ts.URL, cfg)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm sim: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp.Body.Close()

	snap := s.Snapshot()
	if calls.Load() != 0 || snap.Simulations != 0 || snap.QueueDepth != 0 {
		t.Errorf("warm path scheduled work: calls %d, sims %d, queue %d", calls.Load(), snap.Simulations, snap.QueueDepth)
	}
	if snap.Hits != 2 {
		t.Errorf("hits = %d, want 2", snap.Hits)
	}

	// A cold GET is a 404, never a scheduled run.
	resp, err = http.Get(ts.URL + "/v1/result/" + testBase(2).Key())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold GET: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if calls.Load() != 0 || s.Snapshot().QueueDepth != 0 {
		t.Error("cold GET scheduled work")
	}
}

// malformedConfigs are /v1/sim request bodies decodeConfig must reject.
func malformedConfigs() []struct{ name, body string } {
	badCfg, _ := json.Marshal(func() sim.Config { c := testBase(1); c.Cores = 999; return c }())
	return []struct{ name, body string }{
		{"broken json", `{"Cores": `},
		{"unknown field", `{"Cores": 1, "Bogus": true}`},
		{"invalid config", string(badCfg)},
		{"unknown workload", `{"Workload": "no-such-kernel"}`},
		{"unknown mechanism", `{"Mechanism": 99, "Workload": "rnd"}`},
		{"unknown system", `{"System": 99, "Workload": "rnd"}`},
	}
}

// TestMalformedRequests: broken JSON, unknown fields, and invalid
// configurations are all 400s on /v1/sim.
func TestMalformedRequests(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Options{Simulate: instantSim(&calls)})

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, c := range malformedConfigs() {
		if got := post("/v1/sim", c.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, got)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("malformed requests reached the simulator: %d calls", calls.Load())
	}
}

// TestMalformedResultKeys: on a DirStore-backed server, a {key} that
// is not shaped like a content key is the client's error (400) on GET —
// never a store failure (500) — and the store never sees it. A
// well-formed cold key is still a plain 404, and the route takes no
// uploads: PUT is 405.
func TestMalformedResultKeys(t *testing.T) {
	ds, err := sweep.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Store: ds})
	cfg := testBase(1)
	key := cfg.Key()
	body, _ := json.Marshal(fakeResult(cfg))
	do := func(method, k string) int {
		req, _ := http.NewRequest(method, ts.URL+"/v1/result/"+k, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, k := range []string{"a.b", "%2e%2e", "x%5Cy", key[:31], key + "0", strings.ToUpper(key)} {
		if got := do(http.MethodGet, k); got != http.StatusBadRequest {
			t.Errorf("GET /v1/result/%s: status %d, want 400", k, got)
		}
	}
	if got := do(http.MethodGet, key); got != http.StatusNotFound {
		t.Errorf("cold well-formed key: status %d, want 404", got)
	}
	if got := do(http.MethodPut, key); got != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/result/%s: status %d, want 405", key, got)
	}
	if snap := s.Snapshot(); snap.StoreErrors != 0 || snap.Stored != 0 {
		t.Errorf("malformed keys reached the store: %+v", snap)
	}
}

// TestCancelMidRequest: a client that disconnects mid-run detaches;
// the flight completes, lands in the store, and the server stays
// healthy.
func TestCancelMidRequest(t *testing.T) {
	g := newGate()
	store := sweep.NewMemStore()
	s, ts := newTestServer(t, Options{Store: store, Simulate: g.simulate})

	cfg := testBase(3)
	key := cfg.Key()
	b, _ := json.Marshal(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()

	waitFor(t, "simulation to start", func() bool { return g.calls.Load() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no error")
	}

	// The run was NOT cancelled with the client: it completes and is
	// stored, so the next request for the key is warm.
	close(g.release)
	waitFor(t, "result to land in the store", func() bool {
		_, ok, _ := store.Get(key)
		return ok
	})
	if snap := s.Snapshot(); snap.Simulations != 1 {
		t.Errorf("simulations = %d, want 1", snap.Simulations)
	}
	resp := postSim(t, ts.URL, cfg)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-cancel request: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp.Body.Close()
}

// TestBackpressure: a full admission queue answers 429 with a 2-second
// Retry-After, and the rejected key succeeds on retry once the queue
// drains.
func TestBackpressure(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, Options{Simulate: g.simulate, Workers: 1, QueueDepth: 1})

	resps := make(chan int, 2)
	post := func(seed uint64) {
		resp := postSim(t, ts.URL, testBase(seed))
		resp.Body.Close()
		resps <- resp.StatusCode
	}
	go post(1)
	waitFor(t, "worker busy", func() bool { return g.calls.Load() == 1 })
	go post(2)
	waitFor(t, "queue full", func() bool { return s.Snapshot().QueueDepth == 1 })

	resp := postSim(t, ts.URL, testBase(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want \"2\"", ra)
	}
	resp.Body.Close()

	close(g.release)
	for i := 0; i < 2; i++ {
		if code := <-resps; code != http.StatusOK {
			t.Errorf("in-queue request finished with %d", code)
		}
	}
	// The rejected key was never admitted; retried now, it runs.
	resp = postSim(t, ts.URL, testBase(3))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retry after drain: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if snap := s.Snapshot(); snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}
}

// TestCloseDrains: Close admits nothing new but queued and in-flight
// runs complete and land in the store.
func TestCloseDrains(t *testing.T) {
	g := newGate()
	store := sweep.NewMemStore()
	s, err := New(Options{Store: store, Simulate: g.simulate, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := s.submit(testBase(1).Normalize(), testBase(1).Key())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.submit(testBase(2).Normalize(), testBase(2).Key())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return g.calls.Load() == 1 })
	close(g.release)
	s.Close()
	<-f1.done
	<-f2.done
	for _, cfg := range []sim.Config{testBase(1), testBase(2)} {
		if _, ok, _ := store.Get(cfg.Key()); !ok {
			t.Errorf("queued run %s not drained into the store", cfg.Key())
		}
	}
	if _, err := s.submit(testBase(3).Normalize(), testBase(3).Key()); err == nil {
		t.Error("submit after Close succeeded")
	}
}

// TestHealthAndStats: the probes answer, and /statsz reports the
// store inventory through sweep.Inventory.
func TestHealthAndStats(t *testing.T) {
	store := sweep.NewMemStore()
	cfg := testBase(1)
	store.Put(cfg.Key(), fakeResult(cfg))
	_, ts := newTestServer(t, Options{Store: store, Workers: 3, QueueDepth: 5})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap Stats
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Stored != 1 {
		t.Errorf("stored = %d, want 1 (inventory)", snap.Stored)
	}
	if snap.Workers != 3 || snap.QueueCapacity != 5 {
		t.Errorf("workers/queue = %d/%d, want 3/5", snap.Workers, snap.QueueCapacity)
	}
}

// TestEndToEndRemoteDedupe is the acceptance proof at library level:
// two independent sweep clients (each a Runner over its own
// RemoteStore) run the same plan concurrently against one server, and
// the server performs exactly one simulation per unique key. A third
// client then finds every key warm.
func TestEndToEndRemoteDedupe(t *testing.T) {
	// Flights hold at a gate until both clients have attached, so the
	// overlap the test needs is guaranteed by channels, not by hoping a
	// sleep outlasts the scheduler.
	g := newGate()
	calls := &g.calls
	s, ts := newTestServer(t, Options{Simulate: g.simulate, Workers: 4})

	plan := sweep.Plan{Base: testBase(0), Seeds: []uint64{1, 2, 3, 4}}
	runClient := func() ([]*sim.Result, error) {
		remote, err := sweep.NewRemoteStore(ts.URL)
		if err != nil {
			return nil, err
		}
		r := &sweep.Runner{Store: remote, Parallel: 4}
		return r.RunPlan(context.Background(), plan)
	}

	var wg sync.WaitGroup
	outs := make([][]*sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = runClient()
		}(i)
	}
	// 4 collapses = every key requested by both clients; only then do
	// the gated simulations run.
	waitFor(t, "both clients attached to all flights", func() bool {
		return s.Snapshot().Collapses == 4
	})
	close(g.release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		for j, res := range outs[i] {
			if res == nil || res.Cycles != 1000+plan.Seeds[j] {
				t.Fatalf("client %d result %d wrong: %+v", i, j, res)
			}
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("two concurrent clients cost %d simulations, want 4 (one per unique key)", got)
	}
	if snap := s.Snapshot(); snap.Simulations != 4 {
		t.Errorf("server simulations = %d, want 4", snap.Simulations)
	}

	// Third client: all warm, nothing scheduled, no extra simulation.
	out, err := runClient()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || calls.Load() != 4 {
		t.Fatalf("warm client re-simulated: %d calls", calls.Load())
	}
}

// TestStatszJSONShape guards the field names the CI smoke job greps.
func TestStatszJSONShape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, field := range []string{
		`"hits"`, `"misses"`, `"collapses"`, `"simulations"`, `"failures"`,
		`"rejected"`, `"queue_depth"`, `"workers"`, `"busy_workers"`, `"stored"`,
	} {
		if !bytes.Contains(body, []byte(field)) {
			t.Errorf("statsz missing %s:\n%s", field, body)
		}
	}
}
