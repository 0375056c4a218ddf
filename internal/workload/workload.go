// Package workload implements the eleven data-intensive benchmarks of
// Table II as synthetic kernels: the GraphBIG suite (BC, BFS, CC, GC, PR,
// TC, SP), XSBench particle transport lookups (XS), GUPS random access
// (RND), DLRM sparse-length-sum (DLRM), and GenomicsBench k-mer counting
// (GEN).
//
// A workload is the *address stream* of the real kernel, not its
// arithmetic: each generator executes the kernel's control flow over a
// synthetic dataset and emits the loads, stores and compute gaps the real
// program would issue. Dataset topology (graph adjacency, k-mer hashes,
// embedding rows) is derived from a stateless hash so multi-gigabyte
// virtual footprints need no Go-side storage; only state that feeds back
// into control flow (BFS visited sets, work queues) is materialized.
//
// Following the paper's multicore methodology, one workload instance owns
// a shared dataset and serves one Generator per simulated core (the
// paper's suites are multithreaded; cores share an address space and
// partition work).
package workload

import (
	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

// OpKind is the kind of one instruction-level operation.
type OpKind uint8

// Operation kinds.
const (
	// Compute is a non-memory instruction burst of Op.Cycles cycles.
	Compute OpKind = iota
	// Load reads Op.Addr.
	Load
	// Store writes Op.Addr.
	Store
)

// Op is one instruction emitted by a generator.
//
// PC is the virtual address of the static instruction issuing the op,
// used by PC-indexed translation (the PCAX mechanism). Builtin kernels
// assign deterministic synthetic PCs to their loads and stores (a small
// set per kernel, modeling the static memory instructions of an inner
// loop); trace replays carry the captured PC when the trace has one
// (.ndpt format v2, or the optional CSV pc column). PC 0 means "no PC":
// such ops skip the PC-indexed table and PCAX degenerates to Radix.
type Op struct {
	Kind   OpKind
	Addr   addr.V
	PC     uint64
	Cycles uint32
}

// MaxFootprint is the largest dataset a simulation accepts, 1 TiB: the
// bound on a configured footprint and on a trace capture's span. Heaps
// start at 512 GiB, so every heap stays far below the 16 TiB of virtual
// pages a page table maps (VPN 2^32).
const MaxFootprint = 1 << 40

// Mem is the allocation interface a workload uses to reserve its dataset.
// It is implemented by the OS model's AddressSpace.
type Mem interface {
	// Alloc reserves and eagerly populates memory (datasets that exist
	// before the measurement window).
	Alloc(size uint64, name string) addr.V
	// AllocLazy reserves memory populated on first touch (structures
	// that grow during execution and fault inside the window).
	AllocLazy(size uint64, name string) addr.V
}

// Workload is a benchmark: a shared dataset plus per-core op streams.
type Workload interface {
	// Name returns the paper's workload abbreviation (lowercase).
	Name() string
	// Init allocates the shared dataset sized to roughly footprint
	// bytes, for the given thread count.
	Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int)
	// Thread returns the op stream for one core. Init must have been
	// called. Streams are infinite.
	Thread(core int, seed uint64) Generator
}

// Generator is an infinite instruction stream.
type Generator interface {
	Next(op *Op)
}

// emitter is a small FIFO op buffer shared by all generators: kernels
// refill it a step at a time, Next drains it. The backing array is reused
// so steady-state generation does not allocate.
type emitter struct {
	buf  []Op
	head int
}

func (e *emitter) empty() bool { return e.head >= len(e.buf) }

func (e *emitter) reset() {
	e.buf = e.buf[:0]
	e.head = 0
}

func (e *emitter) pop(op *Op) {
	*op = e.buf[e.head]
	e.head++
}

// Synthetic PCs for builtin kernels: each load/store takes a PC from a
// small per-refill-position window, modeling the bounded set of static
// memory instructions in a kernel's inner loop. Position-derived PCs are
// deterministic (a pure function of the op stream, so same-seed runs and
// shard replications see identical PCs) and stable across refills.
const (
	pcBase  = 0x400000 // conventional text-segment base
	pcSlots = 128      // distinct synthetic PCs per kernel
)

func (e *emitter) pc() uint64 { return pcBase + 4*uint64(len(e.buf)&(pcSlots-1)) }

func (e *emitter) load(a addr.V)    { e.buf = append(e.buf, Op{Kind: Load, Addr: a, PC: e.pc()}) }
func (e *emitter) store(a addr.V)   { e.buf = append(e.buf, Op{Kind: Store, Addr: a, PC: e.pc()}) }
func (e *emitter) compute(c uint32) { e.buf = append(e.buf, Op{Kind: Compute, Cycles: c}) }

// thread adapts a refill function to the Generator interface.
type thread struct {
	emitter
	refill func(e *emitter)
}

// Next implements Generator.
func (t *thread) Next(op *Op) {
	for t.empty() {
		t.reset()
		t.refill(&t.emitter)
	}
	t.pop(op)
}

// newThread builds a Generator from a refill step.
func newThread(refill func(e *emitter)) Generator {
	return &thread{refill: refill}
}
