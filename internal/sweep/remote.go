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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpage/internal/sim"
)

// RemoteStore is a Store backed by an ndpserve instance: the shared
// sweep-result service (internal/serve). It implements three layers of
// the protocol:
//
//   - Get fetches warm results over HTTP into a local write-through
//     cache and serves keys it already holds without a request, so a
//     key is transferred at most once per process.
//   - Put writes through: the result is cached locally and uploaded to
//     the server, except for results the server itself produced or
//     served (it already has them).
//   - Simulate (the Simulator extension) delegates cold runs to the
//     server's singleflight scheduler via POST /v1/sim: identical
//     requests from any number of clients collapse into one simulation
//     server-side. A 429 (queue full) is retried after the server's
//     Retry-After delay until Context cancels.
//
// The store is resilient: transient failures — connection resets,
// timeouts, 5xx responses, truncated bodies — are retried with capped
// jittered exponential backoff under per-attempt deadlines, and a
// circuit breaker watches consecutive transport failures. When the
// server is persistently unreachable the breaker opens and the store
// degrades instead of failing the sweep: Get reports a miss for keys it
// does not hold, Put keeps the result locally, and Simulate falls back
// to local in-process simulation. While open, the breaker admits one
// probe per cooldown interval; a probe that succeeds closes it and
// normal service resumes.
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

	mu       sync.Mutex
	local    map[string]*sim.Result
	onServer map[string]bool

	brkMu       sync.Mutex
	brkState    BreakerState
	brkFailures int
	brkOpenedAt time.Time

	hits         atomic.Uint64 // results fetched from the server
	misses       atomic.Uint64 // keys the server does not hold
	remoteSims   atomic.Uint64 // cold runs delegated via POST /v1/sim
	uploads      atomic.Uint64 // results uploaded via PUT
	retries      atomic.Uint64 // HTTP attempts repeated after a transient failure
	breakerOpens atomic.Uint64 // closed/half-open -> open transitions
	localSims    atomic.Uint64 // cold runs simulated locally (degraded mode)
	degradedGets atomic.Uint64 // Gets answered without the server (breaker open or retries exhausted)
	droppedPuts  atomic.Uint64 // uploads abandoned to an unreachable server
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
	// requestTimeout is the per-attempt deadline for Get and Put.
	// Simulate attempts have none: a server-side simulation
	// legitimately runs for minutes, and the server's own watchdog
	// bounds runaway runs.
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
	Uploads      uint64 // locally computed results uploaded
	Retries      uint64 // attempts repeated after transient failures
	BreakerOpens uint64 // circuit open transitions
	LocalSims    uint64 // cold runs simulated locally in degraded mode
	DegradedGets uint64 // Gets answered without the server
	DroppedPuts  uint64 // uploads abandoned to an unreachable server

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
		local:    make(map[string]*sim.Result),
		onServer: make(map[string]bool),
	}, nil
}

// BaseURL returns the server address the store talks to.
func (s *RemoteStore) BaseURL() string { return s.base }

// Stats returns a snapshot of the traffic counters.
func (s *RemoteStore) Stats() RemoteStats {
	return RemoteStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		RemoteSims:   s.remoteSims.Load(),
		Uploads:      s.uploads.Load(),
		Retries:      s.retries.Load(),
		BreakerOpens: s.breakerOpens.Load(),
		LocalSims:    s.localSims.Load(),
		DegradedGets: s.degradedGets.Load(),
		DroppedPuts:  s.droppedPuts.Load(),
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
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.ctx().Done():
		return false
	case <-t.C:
		return true
	}
}

// cache records a server-held result in the local write-through cache.
func (s *RemoteStore) cache(key string, res *sim.Result) {
	s.mu.Lock()
	s.local[key] = res
	s.onServer[key] = true
	s.mu.Unlock()
}

// Len returns the number of locally cached results (Inventory; the
// server-side inventory is on /statsz).
func (s *RemoteStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.local)
}

// Keys returns the locally cached keys in sorted order (Inventory).
func (s *RemoteStore) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.local))
	for k := range s.local {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
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

// integrityError marks a well-formed response whose payload fails
// content-address verification: the server is reachable but served the
// wrong bytes. Never retried — the server would serve them again.
type integrityError struct{ msg string }

func (e *integrityError) Error() string { return e.msg }

// decodeResult decodes a result body and verifies its content address.
// A decode failure (torn connection, truncated body) is an ordinary
// retryable error; an entry whose embedded configuration does not hash
// to key is an integrityError — a server-side integrity failure, not a
// usable result and not worth a retry.
func decodeResult(key string, body io.Reader) (*sim.Result, error) {
	var res sim.Result
	if err := json.NewDecoder(body).Decode(&res); err != nil {
		return nil, fmt.Errorf("sweep: remote result %s: %w", key, err)
	}
	if got := res.Config.Key(); got != key {
		return nil, &integrityError{fmt.Sprintf("sweep: remote result %s: content address mismatch (config hashes to %s)", key, got)}
	}
	return &res, nil
}

// requestCtx derives the per-attempt deadline context for Get and Put.
func (s *RemoteStore) requestCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(s.ctx(), s.tune.requestTimeout)
}

// Get implements Store: a key held locally is served without a
// request; any other key is fetched from the server. Transient failures
// are retried with backoff; a server that stays unreachable degrades to
// a miss rather than failing the sweep, which routes the run to
// Simulate (and, with the breaker open, to local in-process
// simulation). Errors are reserved for failures retrying cannot fix:
// malformed keys, integrity mismatches, 4xx.
func (s *RemoteStore) Get(key string) (*sim.Result, bool, error) {
	s.mu.Lock()
	res, ok := s.local[key]
	s.mu.Unlock()
	if ok {
		return res, true, nil
	}
	degrade := func() (*sim.Result, bool, error) {
		s.degradedGets.Add(1)
		return nil, false, nil
	}
	if !s.breakerAllow() {
		return degrade()
	}
	for attempt := 1; ; attempt++ {
		ctx, cancel := s.requestCtx()
		res, ok, err, retryable := s.getOnce(ctx, key)
		cancel()
		if !retryable {
			return res, ok, err
		}
		if attempt >= s.tune.attempts || !s.breakerAllow() || !s.backoff(attempt) {
			return degrade()
		}
	}
}

// getOnce performs one GET attempt. retryable reports a transient
// failure the caller may re-attempt; otherwise the first three return
// values are final.
func (s *RemoteStore) getOnce(ctx context.Context, key string) (*sim.Result, bool, error, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/result/"+key, nil)
	if err != nil {
		return nil, false, fmt.Errorf("sweep: remote get %s: %w", key, err), false
	}
	resp, err := s.httpc().Do(req)
	if err != nil {
		s.breakerReport(false)
		return nil, false, nil, true
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 {
		s.breakerReport(false)
		return nil, false, nil, true
	}
	s.breakerReport(true)

	switch resp.StatusCode {
	case http.StatusOK:
		res, err := decodeResult(key, resp.Body)
		var ie *integrityError
		if errors.As(err, &ie) {
			return nil, false, err, false
		}
		if err != nil {
			// The body tore mid-transfer; the server itself is fine.
			return nil, false, nil, true
		}
		s.cache(key, res)
		s.hits.Add(1)
		return res, true, nil, false
	case http.StatusNotFound:
		s.misses.Add(1)
		return nil, false, nil, false
	default:
		return nil, false, errBody("get "+key, resp), false
	}
}

// Put implements Store: write-through. The result always lands in the
// local cache; the upload to the server is retried through transient
// failures but ultimately best-effort — a server that stays unreachable
// costs the upload (counted in DroppedPuts), never the sweep, since the
// server can always recompute a content-addressed entry. Errors are
// reserved for failures that are not the transport's fault (encoding,
// 4xx rejections).
func (s *RemoteStore) Put(key string, res *sim.Result) error {
	s.mu.Lock()
	s.local[key] = res
	known := s.onServer[key]
	s.mu.Unlock()
	if known {
		return nil
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: remote put %s: %w", key, err)
	}
	if !s.breakerAllow() {
		s.droppedPuts.Add(1)
		return nil
	}
	for attempt := 1; ; attempt++ {
		ctx, cancel := s.requestCtx()
		err, retryable := s.putOnce(ctx, key, b)
		cancel()
		if !retryable {
			return err
		}
		if attempt >= s.tune.attempts || !s.breakerAllow() || !s.backoff(attempt) {
			s.droppedPuts.Add(1)
			return nil
		}
	}
}

// putOnce performs one PUT attempt.
func (s *RemoteStore) putOnce(ctx context.Context, key string, body []byte) (error, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.base+"/v1/result/"+key, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("sweep: remote put %s: %w", key, err), false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.httpc().Do(req)
	if err != nil {
		s.breakerReport(false)
		return nil, true
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 {
		s.breakerReport(false)
		return nil, true
	}
	s.breakerReport(true)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return errBody("put "+key, resp), false
	}
	s.mu.Lock()
	s.onServer[key] = true
	s.mu.Unlock()
	s.uploads.Add(1)
	return nil, false
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

// localFallback is degraded-mode Simulate: the server is unreachable,
// so the configuration runs in-process. The result is cached locally
// but not marked server-resident, so a later Put retries the upload
// once the circuit closes.
func (s *RemoteStore) localFallback(cfg sim.Config, key string) (*sim.Result, error) {
	s.localSims.Add(1)
	res, err := simulateLocal(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.local[key] = res
	s.mu.Unlock()
	return res, nil
}

// Simulate implements Simulator: the cold-run path. The configuration
// is posted to the server, which either answers warm from its store or
// schedules the run on its worker pool — collapsing concurrent
// identical requests (from this client and every other) into a single
// simulation. Backpressure (429) is retried after the server's
// Retry-After delay until the run is accepted or Context cancels;
// transient failures (resets, timeouts, 5xx the server marks
// retryable) back off and retry, up to four attempts. A server that
// stays unreachable — or a breaker already open — degrades to local
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
	if !s.breakerAllow() {
		return s.localFallback(cfg, key)
	}
	for attempt := 1; ; attempt++ {
		res, err, retryable := s.simulateOnce(cfg, key, body)
		if !retryable {
			return res, err
		}
		if attempt >= s.tune.attempts || !s.breakerAllow() || !s.backoff(attempt) {
			if cerr := s.ctx().Err(); cerr != nil {
				return nil, cerr
			}
			return s.localFallback(cfg, key)
		}
	}
}

// simulateOnce performs one POST /v1/sim attempt, waiting out any 429
// backpressure inside the attempt (the server is alive when it sends
// 429, so pacing rounds do not consume retry attempts).
func (s *RemoteStore) simulateOnce(cfg sim.Config, key string, body []byte) (*sim.Result, error, bool) {
	for {
		req, err := http.NewRequestWithContext(s.ctx(), http.MethodPost, s.base+"/v1/sim", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("sweep: remote sim %s: %w", cfg.Desc(), err), false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.httpc().Do(req)
		if err != nil {
			if cerr := s.ctx().Err(); cerr != nil {
				return nil, cerr, false
			}
			s.breakerReport(false)
			return nil, fmt.Errorf("sweep: remote sim %s: %w", cfg.Desc(), err), true
		}
		done, res, rerr, retryable := s.simResponse(cfg, key, resp)
		if done {
			return res, rerr, retryable
		}
		// 429: honor the server's pacing (with jitter) and re-post.
		if cerr := s.ctx().Err(); cerr != nil {
			return nil, cerr, false
		}
	}
}

// simResponse consumes one /v1/sim response. done is false only for
// backpressure (429), after the pacing delay has been waited out.
func (s *RemoteStore) simResponse(cfg sim.Config, key string, resp *http.Response) (done bool, _ *sim.Result, _ error, retryable bool) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		s.breakerReport(true)
		res, err := decodeResult(key, resp.Body)
		var ie *integrityError
		if errors.As(err, &ie) {
			return true, nil, err, false
		}
		if err != nil {
			// Truncated mid-body: the next attempt will find the key warm.
			return true, nil, fmt.Errorf("sweep: remote sim %s: %w", cfg.Desc(), err), true
		}
		s.cache(key, res)
		s.remoteSims.Add(1)
		return true, res, nil, false
	case resp.StatusCode == http.StatusTooManyRequests:
		// The server's queue is full: honor its pacing and retry.
		s.breakerReport(true)
		delay := retryAfter(resp)
		delay += time.Duration(rand.Int63n(int64(delay)/4 + 1))
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-s.ctx().Done():
			return true, nil, s.ctx().Err(), false
		case <-t.C:
			return false, nil, nil, false
		}
	case resp.StatusCode >= 500:
		err := errBody("sim "+cfg.Desc(), resp)
		if resp.Header.Get("X-Sim-Permanent") == "true" {
			// The server ran the configuration and it failed
			// deterministically; retrying would reproduce it.
			s.breakerReport(true)
			return true, nil, &RunError{Op: "remote-sim", Desc: cfg.Desc(), Permanent: true, Err: err}, false
		}
		// Transient server-side failure (watchdog kill, injected fault)
		// or a gateway error: worth a retry. Only the latter indicts the
		// transport, but the distinction is invisible here; counting both
		// against the breaker errs toward degrading early, which is the
		// resilient direction.
		s.breakerReport(false)
		return true, nil, err, true
	default:
		s.breakerReport(true)
		return true, nil, errBody("sim "+cfg.Desc(), resp), false
	}
}
