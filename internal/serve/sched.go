package serve

import (
	"errors"

	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// errBusy reports a full admission queue (→ 429 + Retry-After);
// errClosed a server past Close (→ 503).
var (
	errBusy   = errors.New("serve: queue full")
	errClosed = errors.New("serve: closed")
)

// flight is one in-flight (or queued) simulation. All requests for the
// same key share a single flight while it is live — the singleflight
// invariant — and read its outcome after done closes. The fields above
// done are set once, before the close, and immutable afterwards.
type flight struct {
	cfg    sim.Config // normalized
	key    string
	res    *sim.Result
	err    error
	cached bool // resolved from the store (raced with another run of the key), not simulated
	done   chan struct{}
}

// submit schedules a cold key, collapsing onto an existing flight if
// one is live. It returns errBusy when the admission queue is full,
// errClosed after Close.
func (s *Server) submit(cfg sim.Config, key string) (*flight, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.flights[key]; f != nil {
		s.collapses.Add(1)
		return f, nil
	}
	if s.closed {
		return nil, errClosed
	}
	f := &flight{cfg: cfg, key: key, done: make(chan struct{})}
	select {
	case s.queue <- f:
		s.flights[key] = f
		return f, nil
	default:
		s.rejected.Add(1)
		return nil, errBusy
	}
}

// worker drains the admission queue until Close. Each flight runs to
// completion whatever happens to the requests waiting on it.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.busy.Add(1)
		s.runFlight(f)
		s.busy.Add(-1)
	}
}

// runFlight resolves one flight: re-check the store (an earlier
// flight's run may have landed the key while this flight queued),
// simulate on a miss, store the result, then release every waiter.
// The simulate function is guarded (sweep.Guard, applied in New), so a
// panicking configuration surfaces here as a RunError, counted and
// logged.
func (s *Server) runFlight(f *flight) {
	if res, ok, err := s.store.Get(f.key); err == nil && ok {
		f.res = res
		f.cached = true
	} else if res, err := s.simulate(f.cfg); err != nil {
		f.err = err
		s.failures.Add(1)
		var re *sweep.RunError
		if errors.As(err, &re) && re.Panicked {
			s.panics.Add(1)
			s.logf("serve: recovered panic in %s: %v", re.Desc, re.Err)
		}
	} else {
		f.res = res
		s.sims.Add(1)
		if perr := s.store.Put(f.key, res); perr != nil {
			// The result is still served to waiters; only its
			// persistence failed. Count it — /statsz is how an
			// operator notices a sick disk.
			s.storeErrs.Add(1)
		}
	}
	s.mu.Lock()
	delete(s.flights, f.key)
	s.mu.Unlock()
	close(f.done)
}
