package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/workload"
	"ndpage/internal/workload/trace"
	"ndpage/internal/xrand"
)

func baseOpts() options {
	return options{
		workload:  "rnd",
		ops:       2_000,
		threads:   1,
		footprint: 64 << 20,
		seed:      42,
	}
}

func TestStatsModeSummarizesOpMix(t *testing.T) {
	opts := baseOpts()
	opts.stats = true
	var sb strings.Builder
	if err := emit(opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"workload       rnd", "ops            2000", "loads", "stores", "distinct pages"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "op,addr") {
		t.Error("stats mode emitted the CSV header")
	}
}

// TestTraceModeEmitsCSV: without -o the trace goes to stdout as CSV
// under the pc header, every load and store carrying its PC.
func TestTraceModeEmitsCSV(t *testing.T) {
	opts := baseOpts()
	opts.ops = 50
	var sb strings.Builder
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != trace.CSVHeaderPC {
		t.Fatalf("header = %q, want %q", lines[0], trace.CSVHeaderPC)
	}
	if len(lines) != 51 {
		t.Fatalf("emitted %d data lines, want 50", len(lines)-1)
	}
	for _, l := range lines[1:] {
		cols := strings.Split(l, ",")
		switch {
		case cols[0] == "L" || cols[0] == "S":
			if len(cols) != 3 {
				t.Fatalf("load/store line %q has %d columns, want 3", l, len(cols))
			}
		case cols[0] == "C" && len(cols) == 2:
		default:
			t.Fatalf("malformed trace line %q", l)
		}
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	opts := baseOpts()
	opts.workload = "nope"
	if err := emit(opts, &strings.Builder{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// sourceOps regenerates the op stream a capture was taken from:
// the same workload, allocator base, and thread-seed derivation.
func sourceOps(t *testing.T, opts options, thread int, n uint64) []workload.Op {
	t.Helper()
	_, wl, err := build(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := wl.Thread(thread, threadSeed(opts.seed, thread))
	out := make([]workload.Op, n)
	for i := range out {
		gen.Next(&out[i])
	}
	return out
}

// encodeV1 renders a capture in the legacy version-1 wire layout (no
// PC deltas), which no writer emits any more but every reader accepts.
func encodeV1(t *testing.T, hdr trace.Header, streams [][]trace.Op) []byte {
	t.Helper()
	buf := []byte(trace.Magic)
	buf = binary.AppendUvarint(buf, trace.Version)
	buf = binary.AppendUvarint(buf, uint64(len(hdr.Name)))
	buf = append(buf, hdr.Name...)
	buf = binary.AppendUvarint(buf, hdr.Seed)
	buf = binary.AppendUvarint(buf, hdr.Base)
	buf = binary.AppendUvarint(buf, hdr.Footprint)
	buf = binary.AppendUvarint(buf, uint64(len(hdr.Ops)))
	for _, c := range hdr.Ops {
		buf = binary.AppendUvarint(buf, c)
	}
	for _, s := range streams {
		var prev uint64
		for _, op := range s {
			buf = binary.AppendUvarint(buf, uint64(op.Kind))
			if op.Kind == trace.Compute {
				buf = binary.AppendUvarint(buf, uint64(op.Cycles))
			} else {
				buf = binary.AppendVarint(buf, int64(op.Addr-prev))
				prev = op.Addr
			}
		}
	}
	var framed bytes.Buffer
	zw := gzip.NewWriter(&framed)
	if _, err := zw.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes()
}

// TestRoundTripAllWorkloads pins the platform's core property: for
// every built-in workload, capture -> binary file -> "trace:" replay
// reproduces the identical per-core op stream, instruction PCs
// included, with multi-stream demux. The v2 case replays the file
// ndptrace wrote; the v1 case re-encodes the same streams in the legacy
// version-1 layout and replays it with every PC zero.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			opts := baseOpts()
			opts.workload = name
			opts.ops = 400
			opts.threads = 2
			opts.allThreads = true
			opts.out = filepath.Join(t.TempDir(), name+".ndpt")
			if err := run(opts, &strings.Builder{}); err != nil {
				t.Fatal(err)
			}
			hdr, streams, err := trace.ReadFile(opts.out)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Streams() != 2 || hdr.TotalOps() != 800 {
				t.Fatalf("header = %d streams / %d ops, want 2 / 800", hdr.Streams(), hdr.TotalOps())
			}
			if hdr.Version != trace.VersionPC {
				t.Fatalf("capture version = %d, want %d", hdr.Version, trace.VersionPC)
			}
			v1 := filepath.Join(t.TempDir(), name+"-v1.ndpt")
			if err := os.WriteFile(v1, encodeV1(t, hdr, streams), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				ver, path string
				pcs       bool
			}{{"v1", v1, false}, {"v2", opts.out, true}} {
				t.Run(c.ver, func(t *testing.T) {
					// Replay onto a bump allocator at the capture base:
					// the replay's region lands where the capture's
					// lowest address was, so streams must match byte for
					// byte.
					spec, err := workload.Lookup(workload.TracePrefix + c.path)
					if err != nil {
						t.Fatal(err)
					}
					wl := spec.New()
					wl.Init(&traceMem{brk: addr.V(hdr.Base)}, xrand.New(1), 0, 2)
					var got workload.Op
					for thread := 0; thread < 2; thread++ {
						want := sourceOps(t, opts, thread, opts.ops)
						gen := wl.Thread(thread, 7) // replay ignores the seed
						for i, w := range want {
							gen.Next(&got)
							if !c.pcs {
								w.PC = 0 // version 1 carries no PCs
							}
							if got != w {
								t.Fatalf("thread %d op %d: replay %+v, capture %+v", thread, i, got, w)
							}
						}
					}
				})
			}
		})
	}
}

// TestDefaultCaptureCarriesPCs: a capture taken with no format flag
// records every load/store's instruction PC, so replaying it under PCAX
// probes the PC-indexed table.
func TestDefaultCaptureCarriesPCs(t *testing.T) {
	opts := baseOpts()
	opts.workload = "pr"
	opts.ops = 4_000
	opts.out = filepath.Join(t.TempDir(), "pr.ndpt")
	if err := run(opts, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	hdr, streams, err := trace.ReadFile(opts.out)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != trace.VersionPC {
		t.Fatalf("default capture is version %d, want %d", hdr.Version, trace.VersionPC)
	}
	var mem, withPC int
	for _, op := range streams[0] {
		if op.Kind != trace.Compute {
			mem++
			if op.PC != 0 {
				withPC++
			}
		}
	}
	if mem == 0 || withPC != mem {
		t.Fatalf("%d of %d loads/stores carry a PC, want all", withPC, mem)
	}

	res, err := sim.RunConfig(sim.Config{
		System:       memsys.NDP,
		Cores:        1,
		Mechanism:    core.PCAX,
		Workload:     workload.TracePrefix + opts.out,
		MemoryBytes:  4 << 30,
		Instructions: 4_000,
		Warmup:       500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCX.Total() == 0 {
		t.Error("PCAX replay of a default capture made no PCX probes")
	}
}

func TestVerifyAcceptsOwnCaptures(t *testing.T) {
	opts := baseOpts()
	opts.ops = 300
	opts.threads = 2
	opts.allThreads = true
	opts.out = filepath.Join(t.TempDir(), "v.ndpt")
	if err := run(opts, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(options{verify: opts.out}, &sb); err != nil {
		t.Fatalf("verify rejected a fresh capture: %v", err)
	}
	for _, want := range []string{"ok ", "2 streams", "600 ops"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("verify output %q missing %q", sb.String(), want)
		}
	}
}

// TestVerifyCatchesTamperedHeader: re-frame the capture with a bumped
// footprint; -verify must notice the header no longer matches the ops.
func TestVerifyCatchesTamperedHeader(t *testing.T) {
	opts := baseOpts()
	opts.ops = 100
	opts.out = filepath.Join(t.TempDir(), "t.ndpt")
	if err := run(opts, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	hdr, streams, err := trace.ReadFile(opts.out)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the file by hand with a lying footprint, keeping
	// payload and op counts intact.
	hdr.Footprint += 64
	if err := os.WriteFile(opts.out, encodeV1(t, hdr, streams), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{verify: opts.out}, &strings.Builder{}); err == nil {
		t.Error("verify accepted a capture whose payload was tampered")
	}
}

func TestFlagConflicts(t *testing.T) {
	opts := baseOpts()
	opts.allThreads = true
	if err := run(opts, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "-o") {
		t.Errorf("-all-threads without -o: err = %v", err)
	}
	opts = baseOpts()
	opts.stats = true
	opts.out = "x.ndpt"
	if err := run(opts, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-stats with -o: err = %v", err)
	}
	opts = baseOpts()
	opts.threads = 0
	opts.allThreads = true
	opts.out = "x.ndpt"
	if err := run(opts, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "-threads") {
		t.Errorf("-threads 0: err = %v (want a flag error, not a panic)", err)
	}
	opts = baseOpts()
	opts.thread = 5
	if err := run(opts, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("-thread beyond -threads: err = %v", err)
	}
}

// brokenWriter fails every write, standing in for a closed pipe.
type brokenWriter struct{}

var errBroken = errors.New("broken pipe")

func (brokenWriter) Write(p []byte) (int, error) { return 0, errBroken }

// TestFlushErrorPropagates: write failures surface from emit instead of
// being swallowed by a deferred Flush.
func TestFlushErrorPropagates(t *testing.T) {
	for _, stats := range []bool{false, true} {
		opts := baseOpts()
		opts.stats = stats
		if err := emit(opts, brokenWriter{}); !errors.Is(err, errBroken) {
			t.Errorf("stats=%v: emit returned %v, want broken-pipe error", stats, err)
		}
	}
}
