package sweep

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
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
	if s.BaseURL() != "http://host:8947" {
		t.Errorf("trailing slash not trimmed: %q", s.BaseURL())
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
		t.Errorf("server GETs = %d, want 2 (a held key costs no request)", fx.gets.Load())
	}
	if store.Len() != 1 {
		t.Errorf("local inventory = %d, want 1", store.Len())
	}
	if keys := store.Keys(); len(keys) != 1 || keys[0] != key {
		t.Errorf("local keys = %v", keys)
	}
}

// TestRemoteGetIntegrityMismatch: a body whose embedded config hashes
// to a different key is rejected, not cached.
func TestRemoteGetIntegrityMismatch(t *testing.T) {
	wrong := fakeResult(testBaseWithSeed(2))
	store, _, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wrong)
	})
	key := testBaseWithSeed(1).Key()
	if _, _, err := store.Get(key); err == nil {
		t.Fatal("mismatched body accepted")
	}
	if store.Len() != 0 {
		t.Error("mismatched body was cached")
	}
}

// TestRemotePut: an upload round-trips, re-uploading the same key is
// free, and a key first seen via Get is never uploaded at all.
func TestRemotePut(t *testing.T) {
	served := fakeResult(testBaseWithSeed(5))
	servedKey := served.Config.Key()
	store, fx, _ := newRemote(t, func(fx *remoteFixture, w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPut:
			var res struct{ Cycles uint64 }
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Errorf("upload body: %v", err)
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodGet:
			json.NewEncoder(w).Encode(served)
		}
	})

	mine := fakeResult(testBaseWithSeed(6))
	mineKey := mine.Config.Key()
	if err := store.Put(mineKey, mine); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(mineKey, mine); err != nil {
		t.Fatal(err)
	}
	if fx.puts.Load() != 1 {
		t.Errorf("uploads for a local result = %d, want 1 (second Put skips)", fx.puts.Load())
	}

	if _, ok, err := store.Get(servedKey); !ok || err != nil {
		t.Fatalf("Get served key: %v, %v", ok, err)
	}
	if err := store.Put(servedKey, served); err != nil {
		t.Fatal(err)
	}
	if fx.puts.Load() != 1 {
		t.Errorf("server-resident key was uploaded (%d PUTs)", fx.puts.Load())
	}
	if got := store.Stats().Uploads; got != 1 {
		t.Errorf("stats.Uploads = %d, want 1", got)
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
// surfaces as a permanent RunError with no retry and no local fallback
// — the configuration itself is bad, and re-running it anywhere
// reproduces the failure.
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
	if !IsPermanent(err) {
		t.Errorf("error %v not classified permanent", err)
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
	if store.Breaker() != BreakerOpen {
		t.Fatalf("breaker = %v after outage, want open", store.Breaker())
	}
	healthy.Store(true)
	time.Sleep(10 * time.Millisecond) // past the cooldown
	got, ok, err := store.Get(key)
	if err != nil || !ok || got.Cycles != res.Cycles {
		t.Fatalf("probe Get = %v, %v; want recovered hit", ok, err)
	}
	if store.Breaker() != BreakerClosed {
		t.Errorf("breaker = %v after successful probe, want closed", store.Breaker())
	}
	if store.Stats().BreakerOpens != 1 {
		t.Errorf("BreakerOpens = %d, want 1", store.Stats().BreakerOpens)
	}
}
