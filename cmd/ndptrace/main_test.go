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

// TestTraceModeEmitsCSV: without -o the trace goes to stdout as CSV,
// and -pc adds a pc column to every load and store there.
func TestTraceModeEmitsCSV(t *testing.T) {
	for _, pcs := range []bool{false, true} {
		opts := baseOpts()
		opts.ops = 50
		opts.pcs = pcs
		var sb strings.Builder
		if err := run(opts, &sb); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
		header, memCols := "op,addr", 2
		if pcs {
			header, memCols = "op,addr,pc", 3
		}
		if lines[0] != header {
			t.Fatalf("-pc=%v: header = %q, want %q", pcs, lines[0], header)
		}
		if len(lines) != 51 {
			t.Fatalf("-pc=%v: emitted %d data lines, want 50", pcs, len(lines)-1)
		}
		for _, l := range lines[1:] {
			cols := len(strings.Split(l, ","))
			switch {
			case strings.HasPrefix(l, "L,") || strings.HasPrefix(l, "S,"):
				if cols != memCols {
					t.Fatalf("-pc=%v: load/store line %q has %d columns, want %d", pcs, l, cols, memCols)
				}
			case strings.HasPrefix(l, "C,"):
			default:
				t.Fatalf("-pc=%v: malformed trace line %q", pcs, l)
			}
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

// TestRoundTripAllWorkloads pins the platform's core property: for
// every built-in workload, capture -> binary file -> "trace:" replay
// reproduces the identical per-core op stream, including multi-stream
// demux. A v1 capture carries kind, address, and cycles (PCs are
// discarded on the wire and replay as zero); a v2 capture (-pc) must
// reproduce the instruction PCs too.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		for _, pcs := range []bool{false, true} {
			ver := "v1"
			if pcs {
				ver = "v2"
			}
			t.Run(name+"/"+ver, func(t *testing.T) {
				opts := baseOpts()
				opts.workload = name
				opts.ops = 400
				opts.threads = 2
				opts.allThreads = true
				opts.pcs = pcs
				opts.out = filepath.Join(t.TempDir(), name+".ndpt")
				if err := run(opts, &strings.Builder{}); err != nil {
					t.Fatal(err)
				}

				hdr, err := trace.Sniff(opts.out)
				if err != nil {
					t.Fatal(err)
				}
				if hdr.Streams() != 2 || hdr.TotalOps() != 800 {
					t.Fatalf("header = %d streams / %d ops, want 2 / 800", hdr.Streams(), hdr.TotalOps())
				}
				wantVer := uint64(trace.Version)
				if pcs {
					wantVer = trace.VersionPC
				}
				if hdr.Version != wantVer {
					t.Fatalf("capture version = %d, want %d", hdr.Version, wantVer)
				}

				// Replay onto a bump allocator at the capture base: the
				// replay's region lands where the capture's lowest address
				// was, so streams must match byte for byte.
				spec, err := workload.Lookup(workload.TracePrefix + opts.out)
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
						if !pcs {
							w.PC = 0 // v1 discards PCs on the wire
						}
						if got != w {
							t.Fatalf("thread %d op %d: replay %+v, capture %+v", thread, i, got, w)
						}
					}
				}
			})
		}
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
	// Re-encode the file by hand (same wire layout as trace.Writer)
	// with a lying footprint, keeping payload and op counts intact.
	hdr.Footprint += 64
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
	var tampered bytes.Buffer
	zw := gzip.NewWriter(&tampered)
	if _, err := zw.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.out, tampered.Bytes(), 0o644); err != nil {
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
	opts.stats = true
	opts.pcs = true
	if err := run(opts, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "-pc") {
		t.Errorf("-stats with -pc: err = %v", err)
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
