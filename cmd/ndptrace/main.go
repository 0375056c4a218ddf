// Command ndptrace is the capture side of the workload platform: it
// dumps the virtual-address instruction stream of any workload as CSV
// (inspectable, single-stream) or as a compact binary .ndpt capture
// (gzip-framed, varint-delta encoded, multi-stream) that the simulator
// replays via Config.Workload = "trace:<file>". Both forms record each
// load and store's instruction PC (the CSV pc column, binary format
// version 2), so a replay drives PC-indexed mechanisms such as PCAX.
// See WORKLOADS.md for the format specification.
//
// Usage:
//
//	ndptrace -workload bfs -ops 10000 > bfs.csv
//	ndptrace -workload dlrm -threads 4 -thread 2 -ops 1000
//	ndptrace -workload gen -stats            # op-mix summary instead of the trace
//	ndptrace -workload bfs -ops 200000 -o bfs.ndpt           # binary capture
//	ndptrace -workload bfs -threads 4 -all-threads -o bfs4.ndpt
//	ndptrace -verify bfs4.ndpt               # replay + check against the header
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ndpage/internal/addr"
	"ndpage/internal/workload"
	"ndpage/internal/workload/trace"
	"ndpage/internal/xrand"
)

// traceMem implements workload.Mem with a plain bump allocator: the
// trace has no OS model, only addresses.
type traceMem struct{ brk addr.V }

func (m *traceMem) alloc(size uint64) addr.V {
	size = addr.AlignUp(size, addr.HugePageSize)
	base := m.brk
	m.brk += addr.V(size)
	return base
}

func (m *traceMem) Alloc(size uint64, name string) addr.V     { return m.alloc(size) }
func (m *traceMem) AllocLazy(size uint64, name string) addr.V { return m.alloc(size) }

// captureBase is where the bump allocator starts; workloads replayed
// against another bump allocator at the same base reproduce the
// captured stream byte for byte.
const captureBase = 1 << 39

// threadSeed derives the per-thread generator seed exactly as sim.New
// does, so captures replay with the simulator's Thread(core, seed)
// semantics.
func threadSeed(seed uint64, thread int) uint64 {
	return seed*1_000_003 + uint64(thread)
}

// options selects what trace to emit.
type options struct {
	workload   string
	ops        uint64
	threads    int
	thread     int
	footprint  uint64
	seed       uint64
	stats      bool
	out        string // -o: binary capture file
	allThreads bool   // capture every thread's stream (-o only)
	verify     string // -verify: replay a capture and check its header
}

// build instantiates the workload on the capture allocator.
func build(opts options) (workload.Spec, workload.Workload, error) {
	spec, err := workload.Lookup(opts.workload)
	if err != nil {
		return workload.Spec{}, nil, err
	}
	wl := spec.New()
	wl.Init(&traceMem{brk: captureBase}, xrand.New(opts.seed), opts.footprint, opts.threads)
	return spec, wl, nil
}

// emit writes the CSV trace (or, with opts.stats, the op-mix summary)
// to w. Output is buffered, and the buffer's write errors — which a
// bare "defer Flush()" would discard — are returned.
func emit(opts options, w io.Writer) error {
	spec, wl, err := build(opts)
	if err != nil {
		return err
	}
	gen := wl.Thread(opts.thread, threadSeed(opts.seed, opts.thread))
	var op workload.Op
	if opts.stats {
		var loads, stores, computes, cycles uint64
		pages := map[addr.VPN]struct{}{}
		for i := uint64(0); i < opts.ops; i++ {
			gen.Next(&op)
			switch op.Kind {
			case workload.Load:
				loads++
				pages[op.Addr.Page()] = struct{}{}
			case workload.Store:
				stores++
				pages[op.Addr.Page()] = struct{}{}
			case workload.Compute:
				computes++
				cycles += uint64(op.Cycles)
			}
		}
		out := bufio.NewWriter(w)
		fmt.Fprintf(out, "workload       %s (%s: %s)\n", spec.Name, spec.Suite, spec.Description)
		fmt.Fprintf(out, "ops            %d\n", opts.ops)
		fmt.Fprintf(out, "loads          %d (%.1f%%)\n", loads, 100*float64(loads)/float64(opts.ops))
		fmt.Fprintf(out, "stores         %d (%.1f%%)\n", stores, 100*float64(stores)/float64(opts.ops))
		fmt.Fprintf(out, "compute ops    %d (%d cycles)\n", computes, cycles)
		fmt.Fprintf(out, "distinct pages %d (%.1f MB touched)\n", len(pages),
			float64(len(pages))*4096/1e6)
		return out.Flush()
	}

	csv := trace.NewCSVWriter(w)
	for i := uint64(0); i < opts.ops; i++ {
		gen.Next(&op)
		if err := csv.Write(trace.Op{Kind: trace.Kind(op.Kind), Addr: uint64(op.Addr), PC: op.PC, Cycles: op.Cycles}); err != nil {
			return err
		}
	}
	return csv.Flush()
}

// capture writes a binary .ndpt capture to opts.out: opts.ops ops of
// one thread (opts.thread), or of every thread with -all-threads.
func capture(opts options) error {
	_, wl, err := build(opts)
	if err != nil {
		return err
	}
	first, streams := opts.thread, 1
	if opts.allThreads {
		first, streams = 0, opts.threads
	}
	w := trace.NewWriter(opts.workload, opts.seed, streams)
	var op workload.Op
	for s := 0; s < streams; s++ {
		gen := wl.Thread(first+s, threadSeed(opts.seed, first+s))
		for i := uint64(0); i < opts.ops; i++ {
			gen.Next(&op)
			w.Append(s, trace.Op{Kind: trace.Kind(op.Kind), Addr: uint64(op.Addr), PC: op.PC, Cycles: op.Cycles})
		}
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	if err := w.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verify replays a capture through the same workload machinery the
// simulator uses ("trace:<path>") and checks the stream against the
// file's header: per-stream op counts, and the address base/footprint
// the ops actually span. It prints a summary on success.
func verify(path string, out io.Writer) error {
	hdr, err := trace.Sniff(path)
	if err != nil {
		return err
	}
	spec, err := workload.Lookup(workload.TracePrefix + path)
	if err != nil {
		return err
	}
	wl := spec.New()
	mem := &traceMem{brk: captureBase}
	wl.Init(mem, xrand.New(0), 0, hdr.Streams())

	var loads, stores, computes uint64
	streams := make([][]trace.Op, hdr.Streams())
	var op workload.Op
	for s := range streams {
		gen := wl.Thread(s, 0)
		hint := hdr.Ops[s]
		if hint > 1<<20 { // header-supplied: cap the preallocation
			hint = 1 << 20
		}
		ops := make([]trace.Op, 0, hint)
		for i := uint64(0); i < hdr.Ops[s]; i++ {
			gen.Next(&op)
			switch op.Kind {
			case workload.Load, workload.Store:
				if op.Kind == workload.Load {
					loads++
				} else {
					stores++
				}
				// Undo the replay's rebase so the ops compare against
				// the header in capture coordinates.
				a := uint64(op.Addr) - (captureBase - hdr.Base)
				ops = append(ops, trace.Op{Kind: trace.Kind(op.Kind), Addr: a})
			default:
				computes++
				ops = append(ops, trace.Op{Kind: trace.Compute, Cycles: op.Cycles})
			}
		}
		streams[s] = ops
	}
	if err := hdr.Check(streams); err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fmt.Fprintf(out, "ok %s: %d streams, %d ops (%d loads, %d stores, %d compute), %.1f MB span\n",
		path, hdr.Streams(), hdr.TotalOps(), loads, stores, computes, float64(hdr.Footprint)/1e6)
	return nil
}

// run executes one ndptrace invocation.
func run(opts options, out io.Writer) error {
	switch {
	case opts.verify != "":
		return verify(opts.verify, out)
	case opts.threads < 1:
		return fmt.Errorf("-threads %d: need at least one thread", opts.threads)
	case opts.thread < 0 || opts.thread >= opts.threads:
		return fmt.Errorf("-thread %d out of range [0, %d)", opts.thread, opts.threads)
	case opts.allThreads && opts.out == "":
		return fmt.Errorf("-all-threads needs -o: the CSV format is single-stream")
	case opts.stats && opts.out != "":
		return fmt.Errorf("-stats and -o are mutually exclusive")
	case opts.out != "":
		return capture(opts)
	default:
		return emit(opts, out)
	}
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "bfs", "workload name (builtin or trace:<path>)")
	flag.Uint64Var(&opts.ops, "ops", 100_000, "number of ops to emit per stream")
	flag.IntVar(&opts.threads, "threads", 1, "total thread count the workload partitions for")
	flag.IntVar(&opts.thread, "thread", 0, "which thread's stream to dump")
	flag.Uint64Var(&opts.footprint, "footprint", 1<<30, "dataset bytes")
	flag.Uint64Var(&opts.seed, "seed", 42, "random seed")
	flag.BoolVar(&opts.stats, "stats", false, "print an op-mix summary instead of the trace")
	flag.StringVar(&opts.out, "o", "", "write a binary .ndpt capture to FILE instead of CSV on stdout")
	flag.BoolVar(&opts.allThreads, "all-threads", false, "capture every thread's stream (requires -o)")
	flag.StringVar(&opts.verify, "verify", "", "replay capture FILE and check it against its header")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndptrace:", err)
		os.Exit(1)
	}
}
