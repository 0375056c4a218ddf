package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpage/internal/sim"
)

// RemoteStore is a Store backed by an ndpserve instance: the shared
// sweep-result service (internal/serve). It speaks two requests of the
// protocol:
//
//   - Get fetches warm results over HTTP (GET /v1/result/{key}) into a
//     local cache and serves keys it already holds without a request, so
//     a key is transferred at most once per process.
//   - Simulate (the Simulator extension) delegates cold runs to the
//     server's singleflight scheduler via POST /v1/sim: identical
//     requests from any number of clients collapse into one simulation
//     server-side, which also stores the result. A 429 (queue full) is
//     re-posted after the server's Retry-After delay until Context
//     cancels.
//
// Put only records a result in the local cache: every result a sweep
// stores came from the server or from a degraded local run, and the
// server recomputes a content-addressed key the next time any client
// posts it.
//
// The store is resilient: transient failures — connection resets,
// timeouts, 5xx responses, truncated bodies — are retried with capped
// jittered exponential backoff, and a circuit breaker watches
// consecutive transport failures. When the server is persistently
// unreachable the breaker opens and the store degrades instead of
// failing the sweep: Get reports a miss for keys it does not hold, and
// Simulate falls back to local in-process simulation. While open, the
// breaker admits one probe per cooldown interval; a probe that succeeds
// closes it and normal service resumes.
//
// Because results are content-addressed by sim.Config.Key(), a locally
// cached entry can never be stale: the server could only confirm it.
// A RemoteStore is safe for concurrent use.
type RemoteStore struct {
	// Context, when non-nil, cancels in-flight HTTP requests, backoff
	// waits, and 429 retry waits (Ctrl-C on the CLI). Set before first
	// use.
	Context context.Context
	// Client overrides the HTTP client (nil = http.DefaultClient; note
	// Simulate blocks for a whole server-side simulation, so a client
	// with an aggressive Timeout will cut long runs short).
	Client *http.Client

	base string
	tune remoteTuning

	mu    sync.Mutex
	local map[string]*sim.Result

	brkMu       sync.Mutex
	brkState    BreakerState
	brkFailures int
	brkOpenedAt time.Time

	hits         atomic.Uint64 // results fetched from the server
	misses       atomic.Uint64 // keys the server does not hold
	remoteSims   atomic.Uint64 // cold runs delegated via POST /v1/sim
	retries      atomic.Uint64 // HTTP attempts repeated after a transient failure
	breakerOpens atomic.Uint64 // closed/half-open -> open transitions
	localSims    atomic.Uint64 // cold runs simulated locally (degraded mode)
	degradedGets atomic.Uint64 // Gets answered without the server (breaker open or retries exhausted)
}

// remoteTuning is a RemoteStore's retry, deadline, and breaker policy.
// NewRemoteStore sets the production values; the package's tests
// shorten them.
type remoteTuning struct {
	// attempts bounds HTTP attempts per logical request across
	// transient failures. Backpressure 429s do not consume attempts:
	// the server is alive, just busy.
	attempts int
	// backoffBase is the first retry delay; it doubles per attempt with
	// up to 50% additive jitter, capped (before jitter) at backoffCap.
	backoffBase, backoffCap time.Duration
	// requestTimeout is the per-attempt deadline for Get. Simulate
	// attempts have none: a server-side simulation legitimately runs for
	// minutes, and the server's own watchdog bounds runaway runs.
	requestTimeout time.Duration
	// breakerTrip is the consecutive transport-failure count that opens
	// the circuit; breakerCooldown is how long it stays open before
	// admitting a recovery probe.
	breakerTrip     int
	breakerCooldown time.Duration
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: normal service, every request goes to the server.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the server is considered unreachable; requests
	// degrade locally without touching the network until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: one recovery probe is in flight; its outcome
	// closes or re-opens the circuit.
	BreakerHalfOpen
)

// String renders the state for logs and /statsz-style snapshots.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// RemoteStats is a snapshot of a RemoteStore's traffic counters.
type RemoteStats struct {
	Hits         uint64 // results fetched from the server
	Misses       uint64 // keys the server does not hold
	RemoteSims   uint64 // cold runs delegated to the server
	Retries      uint64 // attempts repeated after transient failures
	BreakerOpens uint64 // circuit open transitions
	LocalSims    uint64 // cold runs simulated locally in degraded mode
	DegradedGets uint64 // Gets answered without the server

	Breaker BreakerState // current circuit position
}

// NewRemoteStore returns a RemoteStore talking to the ndpserve instance
// at baseURL (e.g. "http://localhost:8947"). The URL must be absolute
// with an http or https scheme; a trailing slash is tolerated.
func NewRemoteStore(baseURL string) (*RemoteStore, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("sweep: remote store URL: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("sweep: remote store URL %q: want http(s)://host[:port]", baseURL)
	}
	return &RemoteStore{
		base: strings.TrimRight(baseURL, "/"),
		tune: remoteTuning{
			attempts:        4,
			backoffBase:     100 * time.Millisecond,
			backoffCap:      2 * time.Second,
			requestTimeout:  15 * time.Second,
			breakerTrip:     5,
			breakerCooldown: 10 * time.Second,
		},
		local: make(map[string]*sim.Result),
	}, nil
}

// Stats returns a snapshot of the traffic counters.
func (s *RemoteStore) Stats() RemoteStats {
	return RemoteStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		RemoteSims:   s.remoteSims.Load(),
		Retries:      s.retries.Load(),
		BreakerOpens: s.breakerOpens.Load(),
		LocalSims:    s.localSims.Load(),
		DegradedGets: s.degradedGets.Load(),
		Breaker:      s.Breaker(),
	}
}

func (s *RemoteStore) ctx() context.Context {
	if s.Context != nil {
		return s.Context
	}
	return context.Background()
}

func (s *RemoteStore) httpc() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

// Breaker returns the circuit's current position (an open circuit past
// its cooldown reads as open until the next request probes it).
func (s *RemoteStore) Breaker() BreakerState {
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	return s.brkState
}

// breakerAllow reports whether a request may go to the server. While
// open, the first caller past the cooldown is admitted as the recovery
// probe (half-open); everyone else degrades locally until the probe
// resolves the circuit.
func (s *RemoteStore) breakerAllow() bool {
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	switch s.brkState {
	case BreakerOpen:
		if time.Since(s.brkOpenedAt) >= s.tune.breakerCooldown {
			s.brkState = BreakerHalfOpen
			return true
		}
		return false
	case BreakerHalfOpen:
		return false
	default:
		return true
	}
}

// breakerReport records a transport outcome: success closes the circuit
// and clears the failure streak; failure extends the streak and opens
// the circuit at the threshold (immediately, for a failed half-open
// probe).
func (s *RemoteStore) breakerReport(ok bool) {
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	if ok {
		s.brkState = BreakerClosed
		s.brkFailures = 0
		return
	}
	s.brkFailures++
	if s.brkState == BreakerHalfOpen || s.brkFailures >= s.tune.breakerTrip {
		if s.brkState != BreakerOpen {
			s.breakerOpens.Add(1)
		}
		s.brkState = BreakerOpen
		s.brkOpenedAt = time.Now()
	}
}

// backoff waits out the capped, jittered exponential delay before retry
// attempt (1-based), honoring Context. It reports false when the
// context cancelled first.
func (s *RemoteStore) backoff(attempt int) bool {
	d := s.tune.backoffBase << (attempt - 1)
	if d > s.tune.backoffCap || d <= 0 {
		d = s.tune.backoffCap
	}
	// Additive jitter up to 50%, so a fleet of clients retrying a
	// recovering server does not stampede it in lockstep.
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	s.retries.Add(1)
	return s.sleep(d)
}

// sleep waits d, reporting false when Context cancelled first.
func (s *RemoteStore) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.ctx().Done():
		return false
	case <-t.C:
		return true
	}
}

// retryAfter parses a 429's Retry-After delay, clamped to [1s, 30s].
func retryAfter(resp *http.Response) time.Duration {
	d := time.Second
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// verdict is a response handler's classification of one attempt.
type verdict int

const (
	// done: the response settles the request, with the handler's error.
	done verdict = iota
	// retry: a transient failure; back off and spend another attempt.
	retry
	// pace: backpressure (429); wait out Retry-After and re-post without
	// spending an attempt — the server is alive, just busy.
	pace
)

// errUnreachable reports that the server could not serve a request:
// the breaker is open, or every attempt failed transiently.
var errUnreachable = errors.New("sweep: remote server unreachable")

// roundTrip sends one logical request to the server: the store's only
// attempt loop. Each attempt passes the breaker, carries timeout as its
// deadline (0 = none), and hands the response to handle. Transport
// errors, and 5xx responses the server does not mark X-Sim-Permanent,
// count against the breaker; any other response clears it. roundTrip
// returns handle's error once it reports done, Context's error once it
// cancels (never charged to the breaker), and errUnreachable when the
// breaker is open or the attempts run out.
func (s *RemoteStore) roundTrip(method, path string, body []byte, timeout time.Duration, handle func(*http.Response) (verdict, error)) error {
	ctx := s.ctx()
	var wait time.Duration // a pace verdict's Retry-After
	send := func() (verdict, error) {
		actx := ctx
		if timeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(actx, method, s.base+path, bytes.NewReader(body))
		if err != nil {
			return done, fmt.Errorf("sweep: remote %s %s: %w", method, path, err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := s.httpc().Do(req)
		if err != nil {
			if ctx.Err() == nil {
				s.breakerReport(false)
			}
			return retry, nil
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		s.breakerReport(resp.StatusCode < 500 || resp.Header.Get("X-Sim-Permanent") == "true")
		v, err := handle(resp)
		if v == pace {
			wait = retryAfter(resp)
		}
		return v, err
	}
	if !s.breakerAllow() {
		return errUnreachable
	}
	for attempt := 1; ; {
		v, err := send()
		if v == done {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if v == pace {
			if !s.sleep(wait + time.Duration(rand.Int63n(int64(wait)/4+1))) {
				return ctx.Err()
			}
			continue
		}
		if attempt >= s.tune.attempts || !s.breakerAllow() {
			return errUnreachable
		}
		if !s.backoff(attempt) {
			return ctx.Err()
		}
		attempt++
	}
}

// errBody formats an error response, folding in the server's message.
func errBody(op string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(b))
	if msg == "" {
		msg = resp.Status
	}
	return fmt.Errorf("sweep: remote %s: %s", op, msg)
}

// decodeResult decodes a 200 body and verifies its content address. A
// body that does not decode (torn connection, truncated transfer) is
// worth a retry; one whose embedded configuration does not hash to key
// is a server-side integrity failure, never retried — the server would
// serve the same bytes again.
func decodeResult(key string, body io.Reader) (*sim.Result, verdict, error) {
	var res sim.Result
	if err := json.NewDecoder(body).Decode(&res); err != nil {
		return nil, retry, nil
	}
	if got := res.Config.Key(); got != key {
		return nil, done, fmt.Errorf("sweep: remote result %s: content address mismatch (config hashes to %s)", key, got)
	}
	return &res, done, nil
}

// cache records a result in the local cache.
func (s *RemoteStore) cache(key string, res *sim.Result) {
	s.mu.Lock()
	s.local[key] = res
	s.mu.Unlock()
}

// Get implements Store: a key held locally is served without a
// request; any other key is fetched from the server. Transient failures
// are retried with backoff; a server that stays unreachable degrades to
// a miss rather than failing the sweep, which routes the run to
// Simulate (and, with the breaker open, to local in-process
// simulation). Errors are reserved for failures retrying cannot fix —
// malformed keys, integrity mismatches, 4xx — and for a cancelled
// Context.
func (s *RemoteStore) Get(key string) (*sim.Result, bool, error) {
	s.mu.Lock()
	res, ok := s.local[key]
	s.mu.Unlock()
	if ok {
		return res, true, nil
	}
	err := s.roundTrip(http.MethodGet, "/v1/result/"+key, nil, s.tune.requestTimeout, func(resp *http.Response) (verdict, error) {
		switch {
		case resp.StatusCode == http.StatusOK:
			r, v, err := decodeResult(key, resp.Body)
			if r != nil {
				s.cache(key, r)
				s.hits.Add(1)
				res = r
			}
			return v, err
		case resp.StatusCode == http.StatusNotFound:
			s.misses.Add(1)
			return done, nil
		case resp.StatusCode >= 500:
			return retry, nil
		default:
			return done, errBody("get "+key, resp)
		}
	})
	if errors.Is(err, errUnreachable) {
		s.degradedGets.Add(1)
		return nil, false, nil
	}
	return res, res != nil, err
}

// Put implements Store by recording res in the local cache; it sends
// no request. The server already holds every result it simulated, and
// recomputes any other key the next time a client posts it.
func (s *RemoteStore) Put(key string, res *sim.Result) error {
	s.cache(key, res)
	return nil
}

// localFallback is degraded-mode Simulate: the server is unreachable,
// so the configuration runs in-process and its result is cached
// locally.
func (s *RemoteStore) localFallback(cfg sim.Config, key string) (*sim.Result, error) {
	s.localSims.Add(1)
	res, err := simulateLocal(cfg)
	if err != nil {
		return nil, err
	}
	s.cache(key, res)
	return res, nil
}

// Simulate implements Simulator: the cold-run path. The configuration
// is posted to the server, which either answers warm from its store or
// schedules the run on its worker pool — collapsing concurrent
// identical requests (from this client and every other) into a single
// simulation. Backpressure (429) is re-posted after the server's
// Retry-After delay until the run is accepted or Context cancels;
// transient failures (resets, 5xx the server marks retryable, torn
// bodies) back off and retry, up to four attempts. A server that stays
// unreachable — or a breaker already open — degrades to local
// in-process simulation, so the sweep completes on client hardware
// instead of stalling. Permanent server-side failures (the server sets
// X-Sim-Permanent: true) return a RunError with Permanent set and are
// never retried.
func (s *RemoteStore) Simulate(cfg sim.Config) (*sim.Result, error) {
	cfg = cfg.Normalize()
	key := cfg.Key()
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: remote sim %s: %w", cfg.Desc(), err)
	}
	var res *sim.Result
	err = s.roundTrip(http.MethodPost, "/v1/sim", body, 0, func(resp *http.Response) (verdict, error) {
		switch {
		case resp.StatusCode == http.StatusOK:
			r, v, err := decodeResult(key, resp.Body)
			if r != nil {
				s.cache(key, r)
				s.remoteSims.Add(1)
				res = r
			}
			return v, err
		case resp.StatusCode == http.StatusTooManyRequests:
			return pace, nil
		case resp.StatusCode >= 500 && resp.Header.Get("X-Sim-Permanent") == "true":
			// The server ran the configuration and it failed
			// deterministically; retrying would reproduce it.
			return done, &RunError{Op: "remote-sim", Desc: cfg.Desc(), Permanent: true, Err: errBody("sim "+cfg.Desc(), resp)}
		case resp.StatusCode >= 500:
			// Transient server-side failure (watchdog kill, injected
			// fault) or a gateway error: worth a retry. Only the latter
			// indicts the transport, but the distinction is invisible
			// here; roundTrip counts both against the breaker, which errs
			// toward degrading early — the resilient direction.
			return retry, nil
		default:
			return done, errBody("sim "+cfg.Desc(), resp)
		}
	})
	if errors.Is(err, errUnreachable) {
		return s.localFallback(cfg, key)
	}
	return res, err
}
