package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"ndpage/internal/fault"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

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

// TestChaosEndToEnd is the acceptance scenario at library level: a
// server over a fault-injected DirStore (first simulation panics, first
// store write torn) serving a client whose transport injects resets,
// 5xx bursts, and body truncation. Two full passes must converge to
// byte-identical results, the server must never die, and /statsz must
// account for every recovery.
func TestChaosEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ds, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	serverPlan := fault.ServerPlan(1)
	s, ts := newTestServer(t, Options{
		Store:    &fault.Store{Inner: ds, Plan: serverPlan, Dir: ds.Dir()},
		Simulate: serverPlan.WrapSim(sim.RunConfig),
		Workers:  2,
	})

	plan := sweep.Plan{Base: testBase(0), Seeds: []uint64{1, 2}}
	clientPlan := fault.ClientPlan(1)
	pass := func() string {
		remote, err := sweep.NewRemoteStore(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		remote.Client = &http.Client{Transport: &fault.Transport{Plan: clientPlan}}
		r := &sweep.Runner{Store: remote, Parallel: 1}
		out, err := r.RunPlan(t.Context(), plan)
		if err != nil {
			t.Fatalf("sweep under chaos: %v", err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	first := pass()
	second := pass() // fresh client; re-reads the torn entry from disk
	if first != second {
		t.Error("results diverged across chaos passes")
	}

	snap := s.Snapshot()
	if snap.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", snap.PanicsRecovered)
	}
	if snap.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (probed through the fault wrapper)", snap.Quarantined)
	}
	if snap.Failures != 1 {
		t.Errorf("Failures = %d, want 1 (the recovered panic)", snap.Failures)
	}
	if snap.Simulations != 3 {
		t.Errorf("Simulations = %d, want 3 (2 cold + 1 quarantine heal)", snap.Simulations)
	}
	if ds.Quarantined() != 1 {
		t.Errorf("DirStore quarantined = %d, want 1", ds.Quarantined())
	}
	if serverPlan.Total() != 2 || clientPlan.Total() == 0 {
		t.Errorf("injected faults: server %d (want 2), client %d (want >0): %s | %s",
			serverPlan.Total(), clientPlan.Total(), serverPlan.Counts(), clientPlan.Counts())
	}
	// The server is alive and the healed entry is served warm.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v %v", resp, err)
	}
	resp.Body.Close()
}
