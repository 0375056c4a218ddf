package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ndpage/internal/addr"
	"ndpage/internal/workload/trace"
	"ndpage/internal/xrand"
)

// TracePrefix is the scheme prefix that makes a workload name a trace
// replay: Config.Workload = "trace:<path>" replays the capture at
// <path> (binary .ndpt or ndptrace CSV; see internal/workload/trace).
const TracePrefix = "trace:"

// traceSpec resolves a "trace:<path>" name into a replay Spec,
// validating the capture by decoding it (memoized — the simulation's
// replay reuses the same decode, so a multi-GB capture is parsed once
// per content version, not once per validation plus once per run).
func traceSpec(name string) (Spec, error) {
	path := strings.TrimPrefix(name, TracePrefix)
	if path == "" {
		return Spec{}, fmt.Errorf("workload: %q names no capture file (want trace:<path>)", name)
	}
	hdr, _, err := loadCapture(path)
	if err != nil {
		return Spec{}, fmt.Errorf("workload %q: %w", name, err)
	}
	if hdr.Footprint > MaxFootprint {
		return Spec{}, fmt.Errorf("workload %q: capture spans %d bytes, more than MaxFootprint (%d)",
			name, hdr.Footprint, uint64(MaxFootprint))
	}
	return Spec{
		Name:  name,
		Suite: "trace",
		Description: fmt.Sprintf("replay of %s (%d streams, %d ops)",
			filepath.Base(path), hdr.Streams(), hdr.TotalOps()),
		PaperDataset: fmt.Sprintf("%.1f MB span", float64(hdr.Footprint)/1e6),
		New:          func() Workload { return &replay{name: name, path: path} },
	}, nil
}

// replay is the trace-replay workload: it re-issues a captured op
// stream per core. The capture's address span is rebased onto one
// region allocated from the simulated address space, core c reads
// stream c modulo the capture's stream count, and a stream that runs
// out loops deterministically back to its first op — so the replay is
// an infinite Generator like every other workload.
type replay struct {
	name, path string
	hdr        trace.Header
	streams    [][]trace.Op
	// delta rebases captured addresses into the allocated region:
	// replayed = captured + delta (two's-complement wrapping).
	delta uint64
}

// Name returns the full registry name ("trace:<path>").
func (r *replay) Name() string { return r.name }

// Init loads the capture (usually a cache hit — Lookup fully decoded
// it at validation) and reserves its address span. A capture that
// disappears or corrupts between validation and machine construction
// panics rather than limping on.
func (r *replay) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	hdr, streams, err := loadCapture(r.path)
	if err != nil {
		panic(fmt.Sprintf("workload: trace replay %s: %v", r.path, err))
	}
	r.hdr, r.streams = hdr, streams
	// The capture's own span wins over the configured footprint: the
	// trace is the dataset. Eagerly populated, like a dataset that
	// exists before the measurement window.
	if hdr.Footprint > 0 {
		base := mem.Alloc(hdr.Footprint, "trace-replay")
		r.delta = uint64(base) - hdr.Base
	}
}

// Thread returns core's replay stream: stream core mod the capture's
// stream count (a capture with fewer streams than cores is demuxed
// round-robin; cores sharing a stream replay identical sequences).
// The seed is ignored — determinism comes from the file.
func (r *replay) Thread(core int, seed uint64) Generator {
	return &replayGen{ops: r.streams[core%len(r.streams)], delta: r.delta}
}

// replayGen walks one captured stream, looping at the end.
type replayGen struct {
	ops   []trace.Op
	i     int
	delta uint64
}

// Next implements Generator. An empty stream degenerates to an
// infinite compute loop (a capture with zero ops has nothing to
// replay but generators must never block).
func (g *replayGen) Next(op *Op) {
	if len(g.ops) == 0 {
		*op = Op{Kind: Compute, Cycles: 1}
		return
	}
	t := g.ops[g.i]
	g.i++
	if g.i == len(g.ops) {
		g.i = 0
	}
	switch t.Kind {
	case trace.Load:
		// PCs are code addresses, not dataset addresses: they pass
		// through unrebased (zero for v1 captures).
		*op = Op{Kind: Load, Addr: addr.V(t.Addr + g.delta), PC: t.PC}
	case trace.Store:
		*op = Op{Kind: Store, Addr: addr.V(t.Addr + g.delta), PC: t.PC}
	default:
		*op = Op{Kind: Compute, Cycles: t.Cycles}
	}
}

// mtimeGuard is the staleness window for the file memos below: a memo
// entry is trusted only when the file's mtime is at least this old,
// because a same-size rewrite within the filesystem's timestamp
// granularity would otherwise revalidate against stale content (the
// classic racy-stat problem). Recently-modified files are simply
// re-read/re-hashed until they age past the guard.
const mtimeGuard = 2 * time.Second

// fileMemo memoizes a value derived from a file's content, by path,
// revalidated by size+mtime. Only files aged past mtimeGuard are
// memoized. A positive max bounds the entry count (a store into a full
// memo drops an arbitrary entry); zero leaves it unbounded.
type fileMemo[T any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]fileEntry[T]
}

type fileEntry[T any] struct {
	size  int64
	mtime time.Time
	val   T
}

// get returns path's memoized value, or computes it with load and
// memoizes it.
func (m *fileMemo[T]) get(path string, load func() (T, error)) (T, error) {
	var zero T
	st, err := os.Stat(path)
	if err != nil {
		return zero, fmt.Errorf("trace: %w", err)
	}
	cacheable := time.Since(st.ModTime()) >= mtimeGuard
	if cacheable {
		m.mu.Lock()
		e, ok := m.entries[path]
		m.mu.Unlock()
		if ok && e.size == st.Size() && e.mtime.Equal(st.ModTime()) {
			return e.val, nil
		}
	}
	v, err := load()
	if err != nil {
		return zero, err
	}
	if cacheable {
		m.mu.Lock()
		if m.entries == nil {
			m.entries = map[string]fileEntry[T]{}
		}
		if m.max > 0 && len(m.entries) >= m.max {
			for k := range m.entries { // drop an arbitrary entry
				delete(m.entries, k)
				break
			}
		}
		m.entries[path] = fileEntry[T]{size: st.Size(), mtime: st.ModTime(), val: v}
		m.mu.Unlock()
	}
	return v, nil
}

// captures memoizes decoded captures. Decoded streams are immutable
// (replay only reads them), so every machine of a parallel sweep over
// one capture shares a single in-memory copy, and validation's decode
// is the run's decode. Bounded to a few entries since streams can be
// large.
var captures = fileMemo[capture]{max: 4}

type capture struct {
	hdr     trace.Header
	streams [][]trace.Op
}

// loadCapture reads and decodes a capture, memoized.
func loadCapture(path string) (trace.Header, [][]trace.Op, error) {
	c, err := captures.get(path, func() (capture, error) {
		hdr, streams, err := trace.ReadFile(path)
		return capture{hdr, streams}, err
	})
	return c.hdr, c.streams, err
}

// digests memoizes trace-file digests, so an edited capture re-hashes.
var digests fileMemo[string]

// traceIdentity returns the key material of a trace workload: a
// content digest of the capture file, so two different captures at the
// same path — or one capture that was edited — content-address their
// runs apart.
func traceIdentity(name string) string {
	path := strings.TrimPrefix(name, TracePrefix)
	sum, err := fileDigest(path)
	if err != nil {
		// An unreadable capture fails Validate before any result is
		// stored; the error placeholder only keeps Key() total.
		return "trace\x00unreadable\x00" + path
	}
	return "trace\x00" + sum
}

// fileDigest returns the hex SHA-256 of the file's content, memoized.
func fileDigest(path string) (string, error) {
	return digests.get(path, func() (string, error) {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return "", err
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	})
}
