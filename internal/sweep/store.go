package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ndpage/internal/sim"
)

// Store persists simulation results content-addressed by
// sim.Config.Key(): the key is a hash of the fully-normalized
// configuration, so a stored result is valid for exactly the runs that
// would reproduce it. Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the stored result for key, reporting whether one
	// exists. A miss is (nil, false, nil); errors are reserved for real
	// failures (I/O, corruption).
	Get(key string) (*sim.Result, bool, error)
	// Put stores res under key, overwriting any previous entry.
	Put(key string, res *sim.Result) error
}

// Inventory is the optional Store extension for stores that can count
// their contents cheaply — without a directory walk per call. The
// result server's /statsz endpoint uses it to report the stored-result
// count on every scrape. MemStore and DirStore implement it; a
// RemoteStore does not, since no server is backed by one.
type Inventory interface {
	// Len returns the number of stored results.
	Len() int
}

// Quarantiner is the optional Store extension for stores that isolate
// corrupt entries instead of failing on them. The result server's
// /statsz endpoint reports the count so an operator notices a sick disk
// (and TestChaosEndToEnd asserts its torn write was healed).
type Quarantiner interface {
	// Quarantined returns the number of corrupt entries isolated since
	// the store was opened.
	Quarantined() int
}

// Simulator is the optional Store extension for stores that can compute
// a missing result themselves — a RemoteStore backed by an ndpserve
// instance runs the simulation server-side, where a singleflight
// scheduler collapses identical requests from every client into one
// run. When a Runner's store implements Simulator, cold keys are
// delegated to it instead of simulated in-process.
type Simulator interface {
	Simulate(cfg sim.Config) (*sim.Result, error)
}

// MemStore is an in-process Store: a map under a mutex. The zero value
// is NOT ready to use; call NewMemStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*sim.Result
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]*sim.Result)}
}

// Get implements Store.
func (s *MemStore) Get(key string) (*sim.Result, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, ok := s.m[key]
	return res, ok, nil
}

// Put implements Store.
func (s *MemStore) Put(key string, res *sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
	return nil
}

// Len returns the number of stored results.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// OpenStore resolves a -cache argument: an http(s):// URL selects a
// RemoteStore over a shared ndpserve instance (cold runs execute
// server-side, deduplicated across every client; ctx aborts its
// in-flight requests and retry waits), anything else a DirStore in that
// directory.
func OpenStore(ctx context.Context, arg string) (Store, error) {
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		rs, err := NewRemoteStore(arg)
		if err != nil {
			return nil, err
		}
		rs.Context = ctx
		return rs, nil
	}
	ds, err := NewDirStore(arg)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// DirStore is an on-disk Store: one JSON file per result, named by the
// config key. Writes go through a temp file + rename, so an interrupted
// sweep never leaves a half-written entry — whatever completed before
// the kill is picked up unchanged by the next run, and the sweep resumes
// from where it stopped.
//
// DirStore also keeps an in-memory key inventory: the directory is
// scanned once at open, then maintained on every Put (and on Get hits
// for entries another process wrote), so Len never walks the
// directory. A long-lived server scraping /statsz pays map reads, not
// readdir syscalls, per snapshot.
//
// Corrupt entries self-heal: an entry that no longer parses — a torn
// write that bypassed the atomic rename (power loss, a sick filesystem,
// a test's injected tear) — is moved into a quarantine/ subdirectory,
// counted, and reported as a miss, so the sweep re-simulates the run
// instead of hard-failing on that key forever. The debris is kept, not
// deleted, so an operator can post-mortem it.
type DirStore struct {
	dir string

	mu          sync.Mutex
	keys        map[string]struct{}
	quarantined int
}

// NewDirStore opens (creating if needed) the cache directory. Temp
// files orphaned by a killed writer are swept out on open, and the
// existing entries are indexed for Len.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	s := &DirStore{dir: dir, keys: make(map[string]struct{})}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("sweep: cache dir scan: %w", err)
	}
	for _, p := range entries {
		s.keys[strings.TrimSuffix(filepath.Base(p), ".json")] = struct{}{}
	}
	return s, nil
}

// Len returns the number of stored results (from the in-memory
// inventory; no directory walk).
func (s *DirStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// index records key in the inventory.
func (s *DirStore) index(key string) {
	s.mu.Lock()
	s.keys[key] = struct{}{}
	s.mu.Unlock()
}

// Quarantined returns the number of corrupt entries isolated since open.
func (s *DirStore) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// quarantine isolates a corrupt entry: the file moves into quarantine/
// under a sequence-numbered name (repeated corruption of one key keeps
// every specimen), the key leaves the inventory, and the caller reports
// a miss so the run re-simulates. If the rename itself fails the debris
// is removed instead — a corrupt entry must never be served again.
func (s *DirStore) quarantine(key, path string) {
	s.mu.Lock()
	s.quarantined++
	n := s.quarantined
	delete(s.keys, key)
	s.mu.Unlock()
	qdir := filepath.Join(s.dir, "quarantine")
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d.json", key, n))
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, dst) != nil {
		os.Remove(path)
	}
}

// Dir returns the cache directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) path(key string) (string, error) {
	// Keys are hex hashes; refuse anything that could escape the dir.
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("sweep: malformed store key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get implements Store. Entries whose decoded configuration no longer
// hashes to their key — recorded under an older Config schema — are
// treated as misses rather than served stale. Entries that no longer
// parse at all are quarantined and reported as misses, so one torn or
// corrupt file costs one re-simulation instead of failing every sweep
// that touches the key; errors are reserved for live I/O failures.
func (s *DirStore) Get(key string) (*sim.Result, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: read cache %s: %w", key, err)
	}
	var res sim.Result
	if err := json.Unmarshal(b, &res); err != nil {
		s.quarantine(key, p)
		return nil, false, nil
	}
	if res.Config.Key() != key {
		return nil, false, nil
	}
	// Another process may have written this entry after our open scan;
	// keep the inventory honest.
	s.index(key)
	return &res, true, nil
}

// Put implements Store.
func (s *DirStore) Put(key string, res *sim.Result) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encode result %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	s.index(key)
	return nil
}
