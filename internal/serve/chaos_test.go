package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// The chaos harness: deterministic fault injection for the resilience
// tests of the sweep/serve stack. A chaosPlan's rules fire on
// per-class operation counters, so a test can assert exact injection
// counts, and the same plan always injects the same faults.

// chaosOp is an operation class. Each class keeps its own 1-based
// counter.
type chaosOp int

const (
	opPut     chaosOp = iota // a tornStore.Put
	opSim                    // a simulation run under wrapSim
	opRequest                // a request through chaosTransport
	opBody                   // a response body chaosTransport delivers
	numOps
)

// chaosKind is a fault flavour.
type chaosKind int

const (
	kindNone chaosKind = iota
	// kindTorn reports a Put as done but leaves a truncated entry under
	// the key's final name, as if the writer died after the rename.
	kindTorn
	kindPanic     // panic with injectedPanic before the simulator runs
	kindReset     // fail the round trip with a connection reset
	kindServerErr // answer 503 without reaching the server
	kindTruncate  // deliver half the body, then io.ErrUnexpectedEOF
)

// chaosRule fires kind on every every'th operation of class op (every=3
// fires on ops 3, 6, 9, ...), at most count times (0 = unlimited).
type chaosRule struct {
	op    chaosOp
	kind  chaosKind
	every int
	count int
}

// chaosPlan is the fault schedule every injector of one scenario
// shares. It is safe for concurrent use.
type chaosPlan struct {
	rules []chaosRule

	mu    sync.Mutex
	ops   [numOps]int // per-class operation counter
	fired []int       // per-rule fire counter
}

func newChaosPlan(rules ...chaosRule) *chaosPlan {
	return &chaosPlan{rules: rules, fired: make([]int, len(rules))}
}

// next counts one operation of class op and returns the fault to
// inject into it: the kind of the first rule that fires, or kindNone.
func (p *chaosPlan) next(op chaosOp) chaosKind {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops[op]++
	for i, r := range p.rules {
		if r.op == op && p.ops[op]%r.every == 0 && (r.count == 0 || p.fired[i] < r.count) {
			p.fired[i]++
			return r.kind
		}
	}
	return kindNone
}

// total returns the number of faults injected so far.
func (p *chaosPlan) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.fired {
		n += f
	}
	return n
}

// tornStore is a DirStore whose scheduled Puts (class opPut) tear. It
// embeds the DirStore, so the server still sees its Inventory and
// Quarantiner.
type tornStore struct {
	*sweep.DirStore
	tb   testing.TB
	plan *chaosPlan
}

// newTornStore opens a tornStore over a fresh temporary directory.
func newTornStore(tb testing.TB, plan *chaosPlan) *tornStore {
	ds, err := sweep.NewDirStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return &tornStore{DirStore: ds, tb: tb, plan: plan}
}

// Put implements sweep.Store. A torn write reports success; the
// corruption shows only when the entry is next read.
func (s *tornStore) Put(key string, res *sim.Result) error {
	if s.plan.next(opPut) != kindTorn {
		return s.DirStore.Put(key, res)
	}
	frag := []byte(`{"Config":{"Sys`) // cut mid-key: unparseable
	if err := os.WriteFile(filepath.Join(s.Dir(), key+".json"), frag, 0o644); err != nil {
		s.tb.Errorf("tearing %s: %v", key, err)
	}
	return nil
}

// chaosTransport is http.DefaultTransport with scheduled faults: each
// request consults class opRequest, and each response that reached
// the server consults class opBody. A reset or a 503 never reaches the
// server, so its counters see nothing.
type chaosTransport struct{ plan *chaosPlan }

// RoundTrip implements http.RoundTripper.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.plan.next(opRequest) {
	case kindReset:
		closeBody(req)
		return nil, errors.New("chaos: injected connection reset")
	case kindServerErr:
		closeBody(req)
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("chaos: injected server error\n")),
			Request:    req,
		}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || t.plan.next(opBody) != kindTruncate {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(b[:len(b)/2]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	return resp, nil
}

// closeBody closes a request body the way a RoundTripper must, even
// when it fails the request.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// injectedPanic is the value a kindPanic throws. It implements
// InjectedFault, sweep's transient-panic contract: the guard that
// recovers it classifies the failure transient, so a retry runs the
// configuration for real.
type injectedPanic struct{}

func (injectedPanic) InjectedFault() bool { return true }
func (injectedPanic) String() string      { return "chaos: injected panic" }

// wrapSim wraps a simulation function with the plan's scheduled panics
// (class opSim).
func (p *chaosPlan) wrapSim(fn func(sim.Config) (*sim.Result, error)) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (*sim.Result, error) {
		if p.next(opSim) == kindPanic {
			panic(injectedPanic{})
		}
		return fn(cfg)
	}
}

// TestPlanSchedule: rules fire on exact operation counts, honour their
// count caps, and total reports what fired.
func TestPlanSchedule(t *testing.T) {
	p := newChaosPlan(
		chaosRule{op: opSim, kind: kindPanic, every: 3, count: 2},
		chaosRule{op: opPut, kind: kindTorn, every: 1, count: 1},
	)
	var fires []int
	for i := 1; i <= 12; i++ {
		if kind := p.next(opSim); kind != kindNone {
			if kind != kindPanic {
				t.Fatalf("op %d injected kind %d", i, kind)
			}
			fires = append(fires, i)
		}
	}
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 6 {
		t.Errorf("kindPanic fired on ops %v, want [3 6]", fires)
	}
	if kind := p.next(opPut); kind != kindTorn {
		t.Errorf("first put = kind %d, want torn", kind)
	}
	if kind := p.next(opPut); kind != kindNone {
		t.Error("torn rule fired past its count")
	}
	if p.total() != 3 {
		t.Errorf("total = %d, want 3", p.total())
	}
}

// TestStoreTornWriteQuarantined is the self-healing loop: a torn write
// plants a corrupt entry in a real DirStore, the next read quarantines
// it and reports a miss, and a clean rewrite restores the key.
func TestStoreTornWriteQuarantined(t *testing.T) {
	fs := newTornStore(t, newChaosPlan(chaosRule{op: opPut, kind: kindTorn, every: 1, count: 1}))
	res := fakeResult(testBase(3))
	key := res.Config.Key()
	if err := fs.Put(key, res); err != nil {
		t.Fatal(err) // the tear reports success
	}
	if _, ok, err := fs.Get(key); ok || err != nil {
		t.Fatalf("read of torn entry = hit %v, err %v; want quarantined miss", ok, err)
	}
	if fs.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", fs.Quarantined())
	}
	if err := fs.Put(key, res); err != nil {
		t.Fatal(err) // rule count exhausted: this write is clean
	}
	got, ok, err := fs.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("healed Get = %+v, %v, %v", got, ok, err)
	}
}

// TestTransportFaults walks each transport fault kind against a live
// test server.
func TestTransportFaults(t *testing.T) {
	const body = `{"answer": 42}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer ts.Close()

	do := func(tr *chaosTransport) (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, strings.NewReader("ping"))
		return tr.RoundTrip(req)
	}

	t.Run("reset", func(t *testing.T) {
		tr := &chaosTransport{newChaosPlan(chaosRule{op: opRequest, kind: kindReset, every: 1, count: 1})}
		if _, err := do(tr); err == nil || !strings.Contains(err.Error(), "reset") {
			t.Fatalf("err = %v, want injected reset", err)
		}
		resp, err := do(tr)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("second request = %v, %v; want clean 200", resp, err)
		}
		resp.Body.Close()
	})
	t.Run("5xx", func(t *testing.T) {
		tr := &chaosTransport{newChaosPlan(chaosRule{op: opRequest, kind: kindServerErr, every: 1})}
		resp, err := do(tr)
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("resp = %v, %v; want synthesized 503", resp, err)
		}
		resp.Body.Close()
	})
	t.Run("truncate", func(t *testing.T) {
		tr := &chaosTransport{newChaosPlan(chaosRule{op: opBody, kind: kindTruncate, every: 1})}
		resp, err := do(tr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("read err = %v, want unexpected EOF", err)
		}
		if len(b) != len(body)/2 {
			t.Errorf("delivered %d bytes, want %d", len(b), len(body)/2)
		}
	})
}

// TestWrapSimPanicIsTransient: an injected panic is recovered by
// sweep.Guard and classified transient, so chaos never pollutes the
// negative cache: the retry simulates for real.
func TestWrapSimPanicIsTransient(t *testing.T) {
	p := newChaosPlan(chaosRule{op: opSim, kind: kindPanic, every: 1, count: 1})
	var calls int
	wrapped := sweep.Guard(p.wrapSim(func(cfg sim.Config) (*sim.Result, error) {
		calls++
		return fakeResult(cfg), nil
	}))
	cfg := testBase(9)
	_, err := wrapped(cfg)
	var re *sweep.RunError
	if !errors.As(err, &re) || !re.Panicked || re.Permanent {
		t.Fatalf("err = %v, want transient recovered panic", err)
	}
	if calls != 0 {
		t.Fatal("simulator ran despite the injected panic")
	}
	res, err := wrapped(cfg)
	if err != nil || res.Cycles != 1009 {
		t.Fatalf("retry = %+v, %v; want clean run", res, err)
	}
}

// simulatingStore hands a Runner's cold runs to run: the sweep.Simulator
// route a Runner takes for any Store that can compute.
type simulatingStore struct {
	sweep.Store
	run func(sim.Config) (*sim.Result, error)
}

func (s simulatingStore) Simulate(cfg sim.Config) (*sim.Result, error) { return s.run(cfg) }

// TestRunnerSurvivesChaos drives a whole sweep through a tearing store
// and a panicking simulator: every fault is transient, so retried Runs
// converge to complete, correct results with zero process crashes.
func TestRunnerSurvivesChaos(t *testing.T) {
	plan := newChaosPlan(
		chaosRule{op: opPut, kind: kindTorn, every: 2, count: 1},
		chaosRule{op: opSim, kind: kindPanic, every: 3, count: 1},
	)
	cfgs := []sim.Config{testBase(1), testBase(2), testBase(3), testBase(4)}
	r := &sweep.Runner{Store: simulatingStore{
		newTornStore(t, plan),
		plan.wrapSim(func(cfg sim.Config) (*sim.Result, error) { return fakeResult(cfg), nil }),
	}}
	// Retry until clean: transient faults may fail individual Runs, but
	// the chaos budget is finite (both rules have count caps).
	var out []*sim.Result
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if out, err = r.Run(t.Context(), cfgs); err == nil {
			break
		}
		if sweep.IsPermanent(err) {
			t.Fatalf("chaos produced a permanent failure: %v", err)
		}
	}
	if err != nil {
		t.Fatalf("sweep did not converge under chaos: %v", err)
	}
	for i, res := range out {
		if res == nil || res.Cycles != 1000+uint64(i+1) {
			t.Fatalf("result %d wrong under chaos: %+v", i, res)
		}
	}
	if plan.total() == 0 {
		t.Fatal("no faults were injected: the chaos test tested nothing")
	}
}

// TestWorkerRecoversPanic: a panicking configuration costs one failed
// request — a 500 marked X-Sim-Permanent — while the process, its
// workers, and subsequent healthy runs all survive.
func TestWorkerRecoversPanic(t *testing.T) {
	var logLines int
	s, ts := newTestServer(t, Options{
		Workers: 1,
		Simulate: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 13 {
				panic("poisoned page-table state")
			}
			return fakeResult(cfg), nil
		},
		Logf: func(string, ...any) { logLines++ },
	})

	resp := postSim(t, ts.URL, testBase(13))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking config: %d %q, want 500", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Sim-Permanent") != "true" {
		t.Error("real panic not classified permanent for the client")
	}

	// The process shrugged: the same worker serves the next run.
	resp = postSim(t, ts.URL, testBase(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy run after panic: %d", resp.StatusCode)
	}
	resp.Body.Close()

	snap := s.Snapshot()
	if snap.PanicsRecovered != 1 || snap.Failures != 1 || snap.Simulations != 1 {
		t.Errorf("stats = {Panics:%d Failures:%d Sims:%d}, want 1/1/1",
			snap.PanicsRecovered, snap.Failures, snap.Simulations)
	}
	if logLines == 0 {
		t.Error("recovered panic was not logged")
	}
}

// TestWatchdogKillsRunawayRun: a run past RunTimeout fails transiently
// (the client may retry) and its worker moves on; when the detached
// goroutine eventually finishes, the result is salvaged into the store
// so the retry finds the key warm.
func TestWatchdogKillsRunawayRun(t *testing.T) {
	g := newGate()
	store := sweep.NewMemStore()
	s, ts := newTestServer(t, Options{
		Store:      store,
		Workers:    1,
		Simulate:   g.simulate,
		RunTimeout: 10 * time.Millisecond,
	})

	cfg := testBase(5)
	resp := postSim(t, ts.URL, cfg)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("runaway run: %d %q, want 500", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Sim-Permanent") == "true" {
		t.Error("watchdog kill classified permanent — retries would be suppressed")
	}
	if snap := s.Snapshot(); snap.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", snap.WatchdogKills)
	}

	// The runaway run finishes late; its result is salvaged.
	close(g.release)
	waitFor(t, "late result salvaged", func() bool { return s.Snapshot().Salvaged == 1 })
	if _, ok, _ := store.Get(cfg.Normalize().Key()); !ok {
		t.Error("salvaged result not in store")
	}
	// The retry is warm: no new simulation scheduled.
	resp = postSim(t, ts.URL, cfg)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("retry after salvage: %d, X-Cache %q; want warm hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp.Body.Close()
}

// TestChaosEndToEnd is the resilience contract under injected faults
// (DESIGN.md §9). A server over a tearing DirStore (first simulation
// panics, first store write torn) serves a client whose transport
// injects resets, 503s and truncated bodies. Both chaos passes must be
// byte-identical to a fault-free pass, the server must never die, and
// /statsz must account for every recovery exactly.
func TestChaosEndToEnd(t *testing.T) {
	serverPlan := newChaosPlan(
		chaosRule{op: opSim, kind: kindPanic, every: 1, count: 1},
		chaosRule{op: opPut, kind: kindTorn, every: 1, count: 1},
	)
	store := newTornStore(t, serverPlan)
	var logMu sync.Mutex
	var logs []string
	s, ts := newTestServer(t, Options{
		Store:    store,
		Simulate: serverPlan.wrapSim(sim.RunConfig),
		Workers:  2,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	// Co-prime periods put the client faults on different requests, so
	// at most two consecutive requests fail: inside RemoteStore's retry
	// budget and below its breaker's trip count.
	clientPlan := newChaosPlan(
		chaosRule{op: opRequest, kind: kindReset, every: 5},
		chaosRule{op: opRequest, kind: kindServerErr, every: 7},
		chaosRule{op: opBody, kind: kindTruncate, every: 11},
	)

	plan := sweep.Plan{Base: testBase(0), Seeds: []uint64{1, 2}}
	run := func(what string, r *sweep.Runner) string {
		out, err := r.RunPlan(t.Context(), plan)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	pass := func() string {
		remote, err := sweep.NewRemoteStore(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		remote.Client = &http.Client{Transport: &chaosTransport{clientPlan}}
		return run("sweep under chaos", &sweep.Runner{Store: remote, Parallel: 1})
	}

	clean := run("fault-free sweep", &sweep.Runner{Parallel: 1})
	first := pass()  // rides out the injected panic; its first write is torn
	second := pass() // fresh client; re-reads the torn entry from disk and heals it
	if first != clean {
		t.Error("chaos pass 1 diverged from the fault-free pass")
	}
	if second != clean {
		t.Error("chaos pass 2 diverged from the fault-free pass")
	}

	// /statsz as a client reads it, so the wire names stay pinned.
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	for name, want := range map[string]float64{
		"simulations":      3, // 2 cold + 1 quarantine heal
		"panics_recovered": 1,
		"failures":         1, // the recovered panic
		"quarantined":      1, // seen through the embedded DirStore
		"watchdog_kills":   0,
	} {
		if got, ok := stats[name].(float64); !ok || got != want {
			t.Errorf("/statsz %q = %v, want %v", name, stats[name], want)
		}
	}
	if fi, err := os.Stat(filepath.Join(store.Dir(), "quarantine")); err != nil || !fi.IsDir() {
		t.Errorf("quarantine directory: %v", err)
	}
	logMu.Lock()
	logged := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(logged, "serve: recovered panic") {
		t.Errorf("no recovered-panic log line in %q", logged)
	}
	if serverPlan.total() != 2 || clientPlan.total() == 0 {
		t.Errorf("injected faults: server %d (want 2), client %d (want >0)",
			serverPlan.total(), clientPlan.total())
	}

	// The server survived, and Close drains without running anything new.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v %v", resp, err)
	}
	resp.Body.Close()
	s.Close()
	if n := s.Snapshot().Simulations; n != 3 {
		t.Errorf("simulations after drain = %d, want 3", n)
	}
}
