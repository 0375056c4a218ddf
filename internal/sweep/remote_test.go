package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpage/internal/sim"
)

// remoteFixture is a scripted ndpserve stand-in: per-method hit
// counters plus a handler the test controls.
type remoteFixture struct {
	gets atomic.Int64
	puts atomic.Int64
	sims atomic.Int64
}

// newRemote builds a RemoteStore against an httptest server whose
// behavior the given handler scripts; the fixture counts requests.
func newRemote(t *testing.T, handler func(fx *remoteFixture, w http.ResponseWriter, r *http.Request)) (*RemoteStore, *remoteFixture, *httptest.Server) {
	t.Helper()
	fx := &remoteFixture{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			fx.gets.Add(1)
		case http.MethodPut:
			fx.puts.Add(1)
		case http.MethodPost:
			fx.sims.Add(1)
		}
		handler(fx, w, r)
	}))
	t.Cleanup(ts.Close)
	store, err := NewRemoteStore(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return store, fx, ts
}

func TestNewRemoteStoreRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "host:8947", "ftp://host", "http://", "/just/a/path", "http://host\x7f"} {
		if _, err := NewRemoteStore(bad); err == nil {
			t.Errorf("NewRemoteStore(%q) accepted", bad)
		}
	}
	s, err := NewRemoteStore("http://host:8947/")
	if err != nil {
		t.Fatal(err)
	}
	if s.base != "http://host:8947" {
		t.Errorf("trailing slash not trimmed: %q", s.base)
	}
}

// TestRemoteGetFetchRevalidateMiss walks Get's three outcomes: a cold
// key misses, a warm key transfers once, and re-reads of a held key
// make no request at all — the key is the entity, so the server could
// only confirm it.
func TestRemoteGetFetchRevalidateMiss(t *testing.T) {
	cfg := testBaseWithSeed(9)
	key := cfg.Key()
	res := fakeResult(cfg)
	held := false
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if !held {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(res)
	})

	if _, ok, err := store.Get(key); ok || err != nil {
		t.Fatalf("cold Get = %v, %v; want miss", ok, err)
	}
	held = true
	got, ok, err := store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("warm Get = %+v, %v, %v", got, ok, err)
	}
	got, ok, err = store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("held Get = %+v, %v, %v", got, ok, err)
	}
	stats := store.Stats()
	if stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit", stats)
	}
	if fx.gets.Load() != 2 {
		t.Errorf("server GETs = %d, want 2 (a miss is not cached; a held key costs no request)", fx.gets.Load())
	}
}

// TestRemoteGetIntegrityMismatch: a body whose embedded config hashes
// to a different key is an error, not retried and not cached — the
// next Get asks the server again.
func TestRemoteGetIntegrityMismatch(t *testing.T) {
	wrong := fakeResult(testBaseWithSeed(2))
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wrong)
	})
	key := testBaseWithSeed(1).Key()
	for i := int64(1); i <= 2; i++ {
		if _, _, err := store.Get(key); err == nil {
			t.Fatal("mismatched body accepted")
		}
		if fx.gets.Load() != i {
			t.Fatalf("server GETs after Get %d = %d, want %d (no retry, no cached copy)", i, fx.gets.Load(), i)
		}
	}
}

// TestRemotePutIsLocal: Put sends no request, and a following Get
// serves the result from the local cache without one either.
func TestRemotePutIsLocal(t *testing.T) {
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	mine := fakeResult(testBaseWithSeed(6))
	key := mine.Config.Key()
	if err := store.Put(key, mine); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(key)
	if err != nil || !ok || got != mine {
		t.Fatalf("Get after Put = %+v, %v, %v; want the local result", got, ok, err)
	}
	if n := fx.puts.Load() + fx.gets.Load() + fx.sims.Load(); n != 0 {
		t.Errorf("Put and Get of a local result made %d requests, want 0", n)
	}
}

// TestRemoteGetDegradesToLocalCopy: once a key is held locally, a
// server that lost it and a dead server both leave the local copy
// served, without a request — content-addressed entries cannot be
// stale. A cold key against a dead server degrades to a miss (routing
// the run to Simulate, and from there to local fallback) instead of
// failing the sweep, and the failure streak opens the circuit breaker.
func TestRemoteGetDegradesToLocalCopy(t *testing.T) {
	cfg := testBaseWithSeed(3)
	key := cfg.Key()
	res := fakeResult(cfg)
	lost := false
	store, fx, ts := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if lost {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	tuneRemote(store)
	if _, ok, err := store.Get(key); !ok || err != nil {
		t.Fatalf("initial Get: %v, %v", ok, err)
	}

	lost = true
	got, ok, err := store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("Get after server lost the key = %v, %v; want local copy", ok, err)
	}
	if fx.gets.Load() != 1 {
		t.Errorf("server GETs = %d, want 1 (a held key costs no request)", fx.gets.Load())
	}

	ts.Close()
	got, ok, err = store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("Get with server down = %v, %v; want local copy", ok, err)
	}
	// Keys never held degrade to a miss, not an error: the sweep
	// re-simulates instead of dying.
	for _, seed := range []uint64{4, 5} {
		if _, ok, err := store.Get(testBaseWithSeed(seed).Key()); ok || err != nil {
			t.Fatalf("cold Get with server down = %v, %v; want degraded miss", ok, err)
		}
	}
	stats := store.Stats()
	if stats.DegradedGets != 2 {
		t.Errorf("stats.DegradedGets = %d, want 2", stats.DegradedGets)
	}
	if stats.Retries == 0 {
		t.Error("dead server cost no retries")
	}
	// Two exhausted Gets = 5 consecutive transport failures: the default
	// breaker threshold. Further requests degrade without the network.
	if stats.Breaker != BreakerOpen {
		t.Errorf("breaker = %v, want open", stats.Breaker)
	}
	if _, ok, err := store.Get(testBaseWithSeed(6).Key()); ok || err != nil {
		t.Fatalf("breaker-open cold Get = %v, %v; want instant miss", ok, err)
	}
}

// TestRemoteSimulate: a cold run posts to /v1/sim, backpressure (429)
// is retried after Retry-After, and the result is cached so the
// follow-up Get costs no request.
func TestRemoteSimulate(t *testing.T) {
	cfg := testBaseWithSeed(8).Normalize()
	key := cfg.Key()
	res := fakeResult(cfg)
	var rejected atomic.Int64
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if fx.sims.Load() == 1 { // first attempt: queue full
			rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
			return
		}
		var got struct{ Seed uint64 }
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil || got.Seed != cfg.Seed {
			t.Errorf("sim request body: seed %d err %v", got.Seed, err)
		}
		json.NewEncoder(w).Encode(res)
	})

	start := time.Now()
	got, err := store.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != res.Cycles {
		t.Fatalf("Simulate cycles = %d, want %d", got.Cycles, res.Cycles)
	}
	if rejected.Load() != 1 || fx.sims.Load() != 2 {
		t.Fatalf("attempts = %d (rejected %d), want 2 with 1 rejection", fx.sims.Load(), rejected.Load())
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retry did not honor Retry-After: elapsed %v", elapsed)
	}
	// The simulated result is locally cached and server-resident: Put
	// skips the upload, Get serves the local copy.
	if err := store.Put(key, got); err != nil {
		t.Fatal(err)
	}
	if fx.puts.Load() != 0 {
		t.Errorf("server-produced result was uploaded (%d PUTs)", fx.puts.Load())
	}
	if _, ok, err := store.Get(key); !ok || err != nil || fx.gets.Load() != 0 {
		t.Errorf("Get of a simulated key = %v, %v after %d GETs; want local hit, no request", ok, err, fx.gets.Load())
	}
	if got := store.Stats().RemoteSims; got != 1 {
		t.Errorf("stats.RemoteSims = %d, want 1", got)
	}
}

// TestRemoteSimulateCancelDuringBackpressure: Context cancels the 429
// retry wait.
func TestRemoteSimulateCancelDuringBackpressure(t *testing.T) {
	store, _, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	})
	ctx, cancel := context.WithCancel(context.Background())
	store.Context = ctx
	done := make(chan error, 1)
	go func() {
		_, err := store.Simulate(testBaseWithSeed(1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Simulate returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Simulate did not return after cancel")
	}
}

// TestRemoteSimulateServerError: a 4xx/5xx surfaces the server's
// message instead of retrying.
func TestRemoteSimulateServerError(t *testing.T) {
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		http.Error(w, "config invalid: cores out of range", http.StatusBadRequest)
	})
	_, err := store.Simulate(testBaseWithSeed(1))
	if err == nil {
		t.Fatal("400 response returned nil error")
	}
	if fx.sims.Load() != 1 {
		t.Errorf("400 was retried: %d attempts", fx.sims.Load())
	}
}

// tuneRemote shortens a RemoteStore's retry delays and request
// deadline for fast failure tests; attempt counts and the breaker
// threshold keep their production values.
func tuneRemote(s *RemoteStore) {
	s.tune.backoffBase = time.Millisecond
	s.tune.backoffCap = 2 * time.Millisecond
	s.tune.requestTimeout = 2 * time.Second
}

// TestRemoteRetriesTransientFailures: 5xx responses and torn bodies are
// retried with backoff until the server behaves; the sweep never sees
// the blips.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	cfg := testBaseWithSeed(11).Normalize()
	res := fakeResult(cfg)
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if fx.sims.Load() <= 2 { // first two attempts blow up
			http.Error(w, "injected gateway error", http.StatusBadGateway)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	tuneRemote(store)
	got, err := store.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != res.Cycles {
		t.Fatalf("Simulate cycles = %d, want %d", got.Cycles, res.Cycles)
	}
	if fx.sims.Load() != 3 {
		t.Errorf("attempts = %d, want 3", fx.sims.Load())
	}
	if stats := store.Stats(); stats.Retries != 2 || stats.Breaker != BreakerClosed {
		t.Errorf("stats = {Retries:%d Breaker:%v}, want 2 retries, closed breaker", stats.Retries, stats.Breaker)
	}
}

// TestRemoteSimulatePermanentFailure: a 500 carrying X-Sim-Permanent
// surfaces as a RunError with no retry and no local fallback — the
// simulation failed, and re-running it anywhere reproduces the failure.
func TestRemoteSimulatePermanentFailure(t *testing.T) {
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sim-Permanent", "true")
		http.Error(w, "simulation: recovered panic: poisoned state", http.StatusInternalServerError)
	})
	tuneRemote(store)
	_, err := store.Simulate(testBaseWithSeed(1))
	if err == nil {
		t.Fatal("permanent server failure returned nil error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Errorf("error %v is not a RunError", err)
	}
	if fx.sims.Load() != 1 {
		t.Errorf("permanent failure was retried: %d attempts", fx.sims.Load())
	}
	if store.Stats().LocalSims != 0 {
		t.Error("permanent failure fell back to local simulation")
	}
}

// TestRemoteSimulateLocalFallback: a persistently unreachable server
// degrades Simulate to local in-process execution — the sweep completes
// on client hardware instead of stalling — and once the failure streak
// hits the breaker threshold, later calls skip the network entirely.
func TestRemoteSimulateLocalFallback(t *testing.T) {
	store, _, ts := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {})
	ts.Close()
	tuneRemote(store)
	store.tune.breakerTrip = 3

	cfg := testBase()
	res, err := store.Simulate(cfg)
	if err != nil {
		t.Fatalf("degraded Simulate: %v", err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatalf("degraded Simulate returned empty result: %+v", res)
	}
	stats := store.Stats()
	if stats.LocalSims != 1 {
		t.Errorf("stats.LocalSims = %d, want 1", stats.LocalSims)
	}
	if stats.Breaker != BreakerOpen {
		t.Errorf("breaker = %v after %d failures, want open", stats.Breaker, stats.Retries+1)
	}
	// Breaker open: the next cold run goes straight to local fallback
	// with zero new retries.
	before := store.Stats().Retries
	if _, err := store.Simulate(testBaseWithSeed(2)); err != nil {
		t.Fatalf("breaker-open Simulate: %v", err)
	}
	if got := store.Stats().Retries; got != before {
		t.Errorf("breaker-open Simulate still hit the network: %d retries, was %d", got, before)
	}
	// The result of a local fallback is cached for Get.
	if _, ok, err := store.Get(cfg.Normalize().Key()); !ok || err != nil {
		t.Errorf("locally simulated result not cached: %v, %v", ok, err)
	}
}

// TestRemoteBreakerRecovers: an open circuit admits a probe after the
// cooldown; a healthy response closes it and normal service resumes.
func TestRemoteBreakerRecovers(t *testing.T) {
	cfg := testBaseWithSeed(21).Normalize()
	key := cfg.Key()
	res := fakeResult(cfg)
	var healthy atomic.Bool
	store, _, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	tuneRemote(store)
	store.tune.breakerTrip = 2
	store.tune.breakerCooldown = 5 * time.Millisecond

	if _, ok, _ := store.Get(key); ok {
		t.Fatal("outage Get reported a hit")
	}
	if b := store.Stats().Breaker; b != BreakerOpen {
		t.Fatalf("breaker = %v after outage, want open", b)
	}
	healthy.Store(true)
	time.Sleep(10 * time.Millisecond) // past the cooldown
	got, ok, err := store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("probe Get = %v, %v; want recovered hit", ok, err)
	}
	if b := store.Stats().Breaker; b != BreakerClosed {
		t.Errorf("breaker = %v after successful probe, want closed", b)
	}
	if store.Stats().BreakerOpens != 1 {
		t.Errorf("BreakerOpens = %d, want 1", store.Stats().BreakerOpens)
	}
}

// TestRemoteBackpressureSpendsNoAttempts: a 429 is paced, not charged
// as an attempt — with a single attempt allowed, one 429 and then a 200
// still yield the server's result, not a local fallback.
func TestRemoteBackpressureSpendsNoAttempts(t *testing.T) {
	cfg := testBaseWithSeed(12).Normalize()
	res := fakeResult(cfg)
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		if fx.sims.Load() == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	tuneRemote(store)
	store.tune.attempts = 1
	start := time.Now()
	got, err := store.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != res.Cycles {
		t.Fatalf("Simulate cycles = %d, want the server's %d", got.Cycles, res.Cycles)
	}
	if stats := store.Stats(); stats.RemoteSims != 1 || stats.LocalSims != 0 || fx.sims.Load() != 2 {
		t.Errorf("stats = {RemoteSims:%d LocalSims:%d} after %d posts, want 1 and 0 after 2",
			stats.RemoteSims, stats.LocalSims, fx.sims.Load())
	}
	if elapsed := time.Since(start); elapsed < time.Second || elapsed > 5*time.Second {
		t.Errorf("elapsed %v, want about 1s of Retry-After pacing", elapsed)
	}
}

// TestRemoteGetCancelIsNotAFailure: cancelling Context mid-Get returns
// the context's error. The server did nothing wrong, so the cancel is
// not charged to the breaker and the Get is not a degraded miss.
func TestRemoteGetCancelIsNotAFailure(t *testing.T) {
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	tuneRemote(store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store.Context = ctx
	go func() {
		for fx.gets.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, ok, err := store.Get(testBaseWithSeed(1).Key())
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get = %v, %v; want context.Canceled", ok, err)
	}
	store.brkMu.Lock()
	failures := store.brkFailures
	store.brkMu.Unlock()
	if stats := store.Stats(); stats.Breaker != BreakerClosed || failures != 0 || stats.DegradedGets != 0 {
		t.Errorf("after cancel: breaker %v with %d failures, DegradedGets %d; want closed, 0, 0",
			stats.Breaker, failures, stats.DegradedGets)
	}
}

// TestRemoteConcurrentGets: a sweep's workers share one store, its
// attempt loop and its breaker. Eight concurrent Gets, each of whose
// keys fails once with a 503 before the server serves it, all succeed
// after exactly one retry each.
func TestRemoteConcurrentGets(t *testing.T) {
	results := map[string]*sim.Result{}
	for seed := uint64(1); seed <= 8; seed++ {
		res := fakeResult(testBaseWithSeed(seed))
		results[res.Config.Key()] = res
	}
	var mu sync.Mutex
	failed := map[string]bool{}
	store, _, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/v1/result/")
		mu.Lock()
		first := !failed[key]
		failed[key] = true
		mu.Unlock()
		if first {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(results[key])
	})
	tuneRemote(store)
	store.tune.breakerTrip = 100 // the test checks sharing, not tripping
	var wg sync.WaitGroup
	for key := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := store.Get(key); !ok || err != nil {
				t.Errorf("Get %s = %v, %v; want a hit after one retry", key, ok, err)
			}
		}()
	}
	wg.Wait()
	if stats := store.Stats(); stats.Hits != 8 || stats.Retries != 8 || stats.Breaker != BreakerClosed {
		t.Errorf("stats = %+v, want 8 hits, 8 retries, closed breaker", stats)
	}
}
