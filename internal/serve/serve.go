// Package serve implements ndpserve: the shared sweep-result service
// that turns the content-addressed run cache (internal/sweep) into
// multi-user infrastructure. The server answers warm keys straight from
// a backing sweep.Store and schedules cold keys on a bounded worker
// pool with singleflight dedupe, so a thundering herd of identical
// configurations — any number of clients, any interleaving — costs
// exactly one simulation. See DESIGN.md section 8.
//
// HTTP surface (all JSON):
//
//	GET  /healthz            liveness probe
//	GET  /statsz             counter snapshot (hits, misses, collapses,
//	                         queue depth, worker utilization, inventory)
//	GET  /v1/result/{key}    warm-key fetch; 404 on a cold key (never
//	                         schedules work)
//	POST /v1/sim             body sim.Config: warm → result; cold →
//	                         singleflight-scheduled run (blocks); full
//	                         queue → 429 + Retry-After: 2; failed run →
//	                         500 + X-Sim-Permanent: true
//
// A failed simulation is final: the simulator is deterministic, so a
// client that re-posts it gets the same failure. A 500 without
// X-Sim-Permanent means the server itself had trouble (a store error)
// and is worth a retry.
//
// A {key} must have the form sim.Config.Key() produces (32 lowercase
// hex digits); anything else is a 400 before the store sees it.
//
// Only the server writes to its store: results enter it from its own
// workers, never from clients.
//
// The package is transport and scheduling only: simulation semantics,
// config validation (sim.Config.Normalize/Validate/Key), and storage
// all come from the packages the CLI already uses.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Store backs the service: warm keys are served from it, completed
	// runs are written to it. Required. A store implementing
	// sweep.Inventory (MemStore, DirStore) lets /statsz report the
	// stored-result count.
	Store sweep.Store
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds runs admitted but not yet started (0 = 64).
	// When the queue is full, new work is rejected with 429 and a
	// Retry-After hint of 2 seconds instead of queuing without bound.
	QueueDepth int
	// Simulate overrides the simulation function (tests). Nil selects
	// sim.RunConfig. Whatever the function, the server runs it under
	// sweep.Guard: a panic becomes a structured per-run error, never a
	// dead process.
	Simulate func(sim.Config) (*sim.Result, error)
	// Logf, when non-nil, receives one line per recovered simulator
	// panic. log.Printf fits.
	Logf func(format string, args ...any)
}

// Server is the sweep-result service: an http.Handler plus the worker
// pool behind it. Create with New, serve with any http.Server, and
// Close on shutdown to drain in-flight work.
type Server struct {
	store    sweep.Store
	simulate func(sim.Config) (*sim.Result, error)
	workers  int
	logf     func(format string, args ...any)
	queue    chan *flight
	mux      *http.ServeMux
	start    time.Time
	wg       sync.WaitGroup

	mu      sync.Mutex
	flights map[string]*flight // in-flight runs by key (singleflight)
	closed  bool

	hits      atomic.Uint64
	misses    atomic.Uint64
	collapses atomic.Uint64
	sims      atomic.Uint64
	failures  atomic.Uint64
	rejected  atomic.Uint64
	storeErrs atomic.Uint64
	panics    atomic.Uint64
	busy      atomic.Int64
}

// New builds a Server over opts and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	simulate := opts.Simulate
	if simulate == nil {
		simulate = sim.RunConfig
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		store:    opts.Store,
		simulate: sweep.Guard(simulate),
		workers:  workers,
		logf:     logf,
		queue:    make(chan *flight, depth),
		flights:  make(map[string]*flight),
		start:    time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/result/{key}", s.handleResultGet)
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the service: no new work is admitted, queued and
// in-flight runs complete and are stored, then the workers exit. Safe
// to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Stats is the /statsz snapshot: the service's traffic and scheduling
// counters since start.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Hits counts requests answered from the store without scheduling
	// any work (warm GETs and warm POST /v1/sim).
	Hits uint64 `json:"hits"`
	// Misses counts requests whose key was not in the store.
	Misses uint64 `json:"misses"`
	// Collapses counts cold requests that attached to an already
	// in-flight run instead of scheduling their own — the singleflight
	// savings.
	Collapses uint64 `json:"collapses"`
	// Simulations counts completed simulation runs; Failures the runs
	// that errored.
	Simulations uint64 `json:"simulations"`
	Failures    uint64 `json:"failures"`
	// Rejected counts runs refused with 429 because the queue was full.
	Rejected uint64 `json:"rejected"`
	// StoreErrors counts failed writes of completed results.
	StoreErrors uint64 `json:"store_errors"`
	// PanicsRecovered counts simulator panics caught by the worker's
	// guard — each one a run that failed structurally instead of killing
	// the process.
	PanicsRecovered uint64 `json:"panics_recovered"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	BusyWorkers   int `json:"busy_workers"`
	// Stored is the store's result inventory (-1 when the store does
	// not implement sweep.Inventory).
	Stored int `json:"stored"`
	// Quarantined is the backing store's corrupt-entry count (-1 when
	// the store does not implement sweep.Quarantiner).
	Quarantined int `json:"quarantined"`
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	stored, quarantined := -1, -1
	if inv, ok := s.store.(sweep.Inventory); ok {
		stored = inv.Len()
	}
	if q, ok := s.store.(sweep.Quarantiner); ok {
		quarantined = q.Quarantined()
	}
	return Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Collapses:       s.collapses.Load(),
		Simulations:     s.sims.Load(),
		Failures:        s.failures.Load(),
		Rejected:        s.rejected.Load(),
		StoreErrors:     s.storeErrs.Load(),
		PanicsRecovered: s.panics.Load(),
		QueueDepth:      len(s.queue),
		QueueCapacity:   cap(s.queue),
		Workers:         s.workers,
		BusyWorkers:     int(s.busy.Load()),
		Stored:          stored,
		Quarantined:     quarantined,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

// writeResult sends a result, marking whether the store already held
// it (X-Cache: hit) or a simulation produced it (sim).
func writeResult(w http.ResponseWriter, res *sim.Result, xcache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	json.NewEncoder(w).Encode(res)
}

// resultKey returns the request's {key}, or writes a 400 and reports
// false when it is not shaped like a sim.Config.Key(). A malformed key
// names no result; it is the client's error, not the store's.
func resultKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	ok := len(key) == 32
	for i := 0; ok && i < len(key); i++ {
		c := key[i]
		ok = '0' <= c && c <= '9' || 'a' <= c && c <= 'f'
	}
	if !ok {
		http.Error(w, fmt.Sprintf("malformed key %q: want 32 lowercase hex digits", key), http.StatusBadRequest)
	}
	return key, ok
}

// handleResultGet is the warm-key read path: it never schedules work.
// A cold key is a plain 404 — clients that want the server to compute
// it POST /v1/sim instead.
func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	key, valid := resultKey(w, r)
	if !valid {
		return
	}
	res, ok, err := s.store.Get(key)
	if err != nil {
		http.Error(w, fmt.Sprintf("store: %v", err), http.StatusInternalServerError)
		return
	}
	if !ok {
		s.misses.Add(1)
		http.Error(w, "unknown key", http.StatusNotFound)
		return
	}
	s.hits.Add(1)
	writeResult(w, res, "hit")
}

// decodeConfig parses and validates a request-body configuration,
// returning its normalized form and content key. Unknown fields are
// rejected: a client built against a newer Config schema would
// otherwise silently hash to a different key than it thinks.
func decodeConfig(body io.Reader) (sim.Config, string, error) {
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	var cfg sim.Config
	if err := dec.Decode(&cfg); err != nil {
		return cfg, "", fmt.Errorf("decode config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, "", err
	}
	n := cfg.Normalize()
	return n, n.Key(), nil
}

// handleSim is the cold-run path: warm keys return immediately, cold
// keys are scheduled with singleflight dedupe and the handler blocks
// until the (possibly shared) run completes. A full queue is a 429
// with a Retry-After pacing hint; a failed run is a 500 marked final.
// A client that disconnects mid-run detaches; the run itself completes
// and is stored — the next request for the key is warm.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	cfg, key, err := decodeConfig(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, ok, err := s.store.Get(key)
	if err != nil {
		http.Error(w, fmt.Sprintf("store: %v", err), http.StatusInternalServerError)
		return
	}
	if ok {
		s.hits.Add(1)
		writeResult(w, res, "hit")
		return
	}
	s.misses.Add(1)
	f, err := s.submit(cfg, key)
	if err != nil {
		s.reject(w, err)
		return
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		// Client gone. The flight is not cancelled: the simulation is
		// already paid for (or shared with other waiters), so it runs
		// to completion and lands in the store.
		return
	}
	if f.err != nil {
		// Every flight error comes from the guarded simulate: the
		// configuration failed, and running it again reproduces that.
		w.Header().Set("X-Sim-Permanent", "true")
		http.Error(w, fmt.Sprintf("simulation: %v", f.err), http.StatusInternalServerError)
		return
	}
	xcache := "sim"
	if f.cached {
		xcache = "hit"
	}
	writeResult(w, f.res, xcache)
}

// reject writes the backpressure (or shutdown) response for a submit
// failure.
func (s *Server) reject(w http.ResponseWriter, err error) {
	if errors.Is(err, errClosed) {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Retry-After", "2")
	http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
}
