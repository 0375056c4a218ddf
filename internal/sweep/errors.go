package sweep

import (
	"errors"
	"fmt"
	"runtime/debug"

	"ndpage/internal/sim"
)

// RunError is the structured failure of one simulation run. Every layer
// of the sweep/serve stack that can lose a run — the in-process
// simulator, the remote offload path, the server-side watchdog — wraps
// its failure in one of these so callers can tell a deterministic
// configuration problem apart from a blip that a retry would fix:
//
//   - Permanent failures are a property of the configuration (a
//     validation error the simulator only detects at build time, a
//     reproducible panic on poisoned state). Retrying cannot help, so
//     the Runner negatively caches them for its lifetime.
//   - Transient failures are a property of the moment (an unreachable
//     server, an exhausted backpressure budget, a watchdog deadline, a
//     test's injected fault). They are reported to the Run that observed
//     them and then forgotten — the next Run retries.
type RunError struct {
	// Op names the layer that failed: "simulate", "remote-sim",
	// "watchdog", "store".
	Op string
	// Desc is the configuration's Desc(), for log lines.
	Desc string
	// Permanent marks failures deterministic for this configuration;
	// only these are negatively cached.
	Permanent bool
	// Panicked marks an error recovered from a simulator panic.
	Panicked bool
	// Stack holds the recovered panic's stack trace (empty otherwise).
	Stack string
	// Err is the underlying cause.
	Err error
}

// Error formats the failure with its classification, so a log line is
// enough to know whether a retry is worth it.
func (e *RunError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	what := e.Op
	if e.Desc != "" {
		what += " " + e.Desc
	}
	if e.Panicked {
		return fmt.Sprintf("%s: recovered panic: %v (%s)", what, e.Err, kind)
	}
	return fmt.Sprintf("%s: %v (%s)", what, e.Err, kind)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// IsPermanent reports whether err is (or wraps) a RunError marked
// Permanent. Anything else — including plain errors of unknown
// provenance — is treated as transient: the safe default, since
// negatively caching a blip pins a spurious failure for the process
// lifetime while retrying a deterministic one merely wastes a run.
func IsPermanent(err error) bool {
	var re *RunError
	return errors.As(err, &re) && re.Permanent
}

// transientPanic is the contract by which a test's fault injector
// (internal/serve/chaos_test.go) marks its panics as deliberate: a
// recovered panic value implementing it (and returning true) classifies
// as transient, because the injector — not the configuration — caused
// it. Real simulator panics are deterministic
// consequences of the configuration and classify as permanent.
type transientPanic interface {
	InjectedFault() bool
}

// Guard wraps a simulation function so a panic in the simulator core
// (osmm, pagetable, tlb all panic on bad state) becomes a structured
// RunError instead of killing the process. One poisoned configuration
// then costs one failed run — the worker, the sweep, and the server all
// keep going.
func Guard(fn func(sim.Config) (*sim.Result, error)) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (res *sim.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				permanent := true
				if tp, ok := v.(transientPanic); ok && tp.InjectedFault() {
					permanent = false
				}
				res = nil
				err = &RunError{
					Op:        "simulate",
					Desc:      cfg.Desc(),
					Permanent: permanent,
					Panicked:  true,
					Stack:     string(debug.Stack()),
					Err:       fmt.Errorf("panic: %v", v),
				}
			}
		}()
		return fn(cfg)
	}
}
