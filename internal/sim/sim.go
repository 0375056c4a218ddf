// Package sim is the trace-driven, cycle-approximate multicore simulator:
// cores execute workload op streams through per-core MMUs and the shared
// memory hierarchy on a discrete-event engine (internal/engine), so
// cross-core queueing in DRAM banks, channel buses, and the mesh emerges
// naturally from the schedule.
//
// Two front-ends share the engine:
//
//   - The serial path runs Config.MLP = 1 (default), the in-order
//     blocking core, when every core has a private walker: each op runs
//     to completion inside one event and the core's next event is
//     scheduled at the op's completion. Event dispatch order
//     (time, core, seq) reproduces the old per-step min-clock scan
//     exactly, so its timing is bit-identical to the step-driven engine
//     it replaced — without the O(cores) scan per instruction. Only
//     private walkers under blocking cores take this path.
//
//   - The staged front-end runs everything else: a core may keep up
//     to MLP loads/stores in flight (Config.MLP > 1, the non-blocking
//     core; a window of one for a blocking core on a shared walker).
//     Translation becomes a request/completion pair on the engine
//     (MMU.TranslateAsyncPC), walks contend for real walker slots in
//     global time order, the data access issues inside the
//     translation's completion event, and a window-release event
//     retires each op. The front-end stalls only on faults, compute
//     bursts, and a full window.
//
// One simulation = one machine (CPU or NDP, Table I), one translation
// mechanism, one multithreaded workload sharing an address space across
// cores (the paper's methodology: 500M instructions per core; this
// reproduction's instruction budget is configurable and defaults far
// smaller — rates converge quickly at scaled footprints).
package sim

import (
	"fmt"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/engine"
	"ndpage/internal/memsys"
	"ndpage/internal/osmm"
	"ndpage/internal/phys"
	"ndpage/internal/workload"
	"ndpage/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	System    memsys.Kind
	Cores     int
	Mechanism core.Mechanism
	// Workload names the op-stream source: a Table II benchmark
	// (workload.Names), a registered workload (workload.Register), or
	// "trace:<path>" to replay a captured op stream (see ndptrace and
	// WORKLOADS.md).
	Workload string
	// FootprintBytes is the shared dataset budget. Zero selects the
	// core-count-scaled default ((19+cores)/2 GB: 10 GB at 1 core up to
	// 13.5 GB at 8), mirroring the paper's "workload scale grows with
	// the number of cores". Footprints must comfortably exceed both TLB
	// reach and the L1's ability to cache upper-level PTEs for the
	// paper's regime to appear.
	FootprintBytes uint64
	// MemoryBytes is physical memory (Table I: 16 GB).
	MemoryBytes uint64
	// FragHoles scatters single-frame background allocations that break
	// up 2 MB contiguity before the workload starts. Zero selects the
	// default of 800 holes on a 16 GB machine — damaging up to ~10% of
	// its 8192 2 MB blocks — scaled linearly with MemoryBytes.
	FragHoles int
	// Warmup and Instructions are per-core op budgets; statistics reset
	// after warmup. Zeros select defaults (30k warmup, 300k measured).
	Warmup       uint64
	Instructions uint64
	// FetchEvery models one instruction fetch per N ops through the
	// ITLB/L1I (0 selects the default of 8).
	FetchEvery int
	Seed       uint64

	// Sensitivity knobs (DESIGN.md Section 5). Zero values are the
	// paper configuration.

	// DisablePWC removes the page-walk caches.
	DisablePWC bool
	// HBMChannels overrides the NDP memory channel count (0 = default).
	HBMChannels int
	// DemandPaging disables eager dataset population: every page faults
	// on first touch inside the window.
	DemandPaging bool
	// ResidentLimitBytes caps resident memory, modelling datasets larger
	// than DRAM (the paper's GenomicsBench is 33 GB against 16 GB):
	// beyond it, faults reclaim the oldest 2 MB chunks, so cold data
	// re-faults. Zero disables (default).
	ResidentLimitBytes uint64
	// ECHWayPrediction equips ECH walkers with the original ECH paper's
	// cuckoo-walk cache (way prediction), cutting most walks from d
	// probes to one. Off by default to match the NDPage paper's ECH
	// baseline.
	ECHWayPrediction bool
	// WalkerWidth sets the number of concurrent walk slots per walker
	// (0 = 1, the conventional blocking walker). Widths above 1 only
	// matter when walks can actually overlap — with SharedWalker, or on
	// a non-blocking core (MLP > 1); Validate rejects the inert
	// remainder.
	WalkerWidth int
	// SharedWalker serves every core's TLB misses from one
	// cluster-level walk unit (walker + page-walk caches) instead of a
	// private unit per MMU. Concurrent walks then contend for the
	// walker's slots and duplicate walks coalesce in its MSHRs — the
	// walker-width sensitivity study's configuration. Blocking cores
	// (MLP = 1) on a shared walker run the staged front-end with a
	// window of one, so their misses reach it in global time order.
	SharedWalker bool
	// MLP is the per-core memory-level-parallelism window: how many
	// loads/stores one core may have in flight. 0 or 1 (the default)
	// models the conventional in-order blocking core; with private
	// walkers it reproduces the pre-engine step-driven timing bit for
	// bit (see SharedWalker for the shared case). Values above 1 switch
	// the core to a non-blocking front-end whose translations and data
	// accesses overlap on the event engine — the regime where walker
	// slots contend, MSHRs coalesce, and the in-flight histograms in
	// Result fill out.
	MLP int

	// Mechanism-specific knobs (DESIGN.md "Mechanism zoo"). Each is
	// meaningful only under its mechanism; Validate rejects the inert
	// combinations.

	// VictimaGate is Victima's TLB-miss-predictor threshold: a
	// translation block is admitted into the last-level cache after this
	// many walks have demanded it. Zero selects the default of 2 when
	// Mechanism is Victima.
	VictimaGate int
	// IdentityPromote extends NMT's identity segments to demand-faulted
	// chunks: without it only eagerly-populated chunks are covered, so
	// under DemandPaging the mechanism would cover nothing (Validate
	// rejects that combination).
	IdentityPromote bool
	// PCXEntries sizes PCAX's PC-indexed translation table. Zero selects
	// the default of 512 entries (4-way) when Mechanism is PCAX.
	PCXEntries int
}

// Machine is an assembled simulation ready to run.
type Machine struct {
	cfg    Config
	alloc  *phys.Allocator
	hier   *memsys.Hierarchy
	space  *osmm.AddressSpace
	eng    *engine.Engine
	cores  []*simCore
	target uint64 // per-core instruction budget of the current phase
	// serial selects the blocking model's serial path (stepEvent,
	// MMU.TranslatePC, walker.Walk), taken only by private walkers
	// under blocking cores. A shared walker must see every core's
	// misses in global time order, so blocking cores on one run the
	// staged front-end with a window of one, on the event path.
	serial bool
	// opFree heads the free list of pooled in-flight memory-op records
	// (staged front-end), so issuing a load/store allocates nothing in
	// steady state.
	opFree *memOp
}

// Event kinds delivered to a simCore (engine.Actor). The front-end
// event carries no payload; the completion event's time is the op's
// completion, delivered as the event's `now`.
const (
	evFrontEnd  uint8 = iota // run the core's front-end (stepEvent or issueStaged)
	evMemOpDone              // retire one in-flight memory op (staged front-end)
)

// simCore is one simulated core: its op stream, MMU, and local clock.
// The clock is the front-end's time; on the staged front-end,
// completions of in-flight ops may trail it (maxDone tracks the
// latest). The core is an engine.Actor: its front-end and op-retirement
// events are typed (kind, payload) pairs, so the per-instruction path
// schedules without allocating.
type simCore struct {
	id    int
	m     *Machine
	clock uint64
	gen   workload.Generator
	mmu   *core.MMU
	op    workload.Op

	codeBase addr.V
	codePos  uint64
	fetchCnt int

	// Staged front-end state (unused on the serial path). The issue
	// pipeline (issueStaged) resumes at stage after fault reschedules;
	// stalled marks a front-end waiting for a window slot.
	inFlight int
	opValid  bool
	stage    int
	stalled  bool
	fetchDue bool
	fetchVA  addr.V
	maxDone  uint64

	// measurement-window counters
	start             uint64
	instructions      uint64
	loads, stores     uint64
	computeCycles     uint64
	translationCycles uint64
	dataCycles        uint64
	faultCycles       uint64
	// windowHist[k] counts memory-op issues that brought the in-flight
	// window to k ops (index 0 unused; staged front-end only — the
	// serial path's histogram is synthesized at collection).
	windowHist []uint64
}

// codeBytes is the per-core instruction footprint (a loop of a few pages).
const codeBytes = 16 << 10

// New builds the machine: physical memory with background fragmentation,
// the memory hierarchy, the shared address space with the mechanism's
// page table, the workload dataset, and one MMU + op stream per core.
func New(cfg Config) (*Machine, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := workload.Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}

	alloc := phys.New(cfg.MemoryBytes)
	rng := xrand.New(cfg.Seed)
	alloc.InjectFragmentation(rng, cfg.FragHoles, 1)

	mcfg := memsys.Default(cfg.System, cfg.Cores)
	mcfg.BypassL1PTE = cfg.Mechanism.BypassL1PTE()
	mcfg.VictimaGate = cfg.VictimaGate // nonzero only under Victima (Validate)
	if cfg.HBMChannels > 0 {
		mcfg.DRAM.Channels = cfg.HBMChannels
	}
	hier := memsys.New(mcfg)

	table := cfg.Mechanism.NewTable(alloc)
	oscfg := osmm.DefaultConfig(cfg.Mechanism.Policy(), alloc.TotalFrames())
	// Datasets are ~97.5% resident when the window opens; the remaining
	// chunks fault on first touch inside the window (cold-start tail).
	oscfg.HoleFraction = 0.025
	oscfg.HoleSeed = cfg.Seed * 7919
	oscfg.DemandPaging = cfg.DemandPaging
	oscfg.ResidentLimitFrames = cfg.ResidentLimitBytes / addr.PageSize
	oscfg.IdentityMap = cfg.Mechanism == core.NMT
	oscfg.IdentityPromote = cfg.IdentityPromote
	space := osmm.New(table, alloc, oscfg)

	w := spec.New()
	w.Init(space, rng, cfg.FootprintBytes, cfg.Cores)

	m := &Machine{cfg: cfg, alloc: alloc, hier: hier, space: space, eng: engine.New(),
		serial: cfg.MLP == 1 && !cfg.SharedWalker}
	opts := core.Options{
		DisablePWC:       cfg.DisablePWC,
		ECHWayPrediction: cfg.ECHWayPrediction,
		WalkerWidth:      cfg.WalkerWidth,
		PCXEntries:       cfg.PCXEntries, // nonzero only under PCAX (Validate)
	}
	if cfg.Mechanism == core.NMT {
		opts.Identity = space
	}
	if cfg.SharedWalker {
		opts.SharedUnit = core.NewWalkUnit(cfg.Mechanism, table, hier, opts)
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &simCore{
			id:       i,
			m:        m,
			gen:      w.Thread(i, cfg.Seed*1_000_003+uint64(i)),
			mmu:      core.NewMMUWithOptions(cfg.Mechanism, i, table, hier, opts),
			codeBase: space.Alloc(codeBytes, fmt.Sprintf("code.%d", i)),
		}
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// OnEvent implements engine.Actor: route the core's typed events.
func (c *simCore) OnEvent(now uint64, kind uint8, payload uint64) {
	switch kind {
	case evFrontEnd:
		if c.m.serial {
			c.m.stepEvent(c)
		} else {
			c.m.issueStaged(c)
		}
	case evMemOpDone:
		c.m.completeMemOp(c, now)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// Config returns the (defaults-resolved) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Space returns the shared address space (tests and tools).
func (m *Machine) Space() *osmm.AddressSpace { return m.space }

// Hierarchy returns the memory system (tests and tools).
func (m *Machine) Hierarchy() *memsys.Hierarchy { return m.hier }

// Allocator returns the physical allocator (tests and tools).
func (m *Machine) Allocator() *phys.Allocator { return m.alloc }

// MMU returns core i's MMU (tests and tools).
func (m *Machine) MMU(i int) *core.MMU { return m.cores[i].mmu }

// stepMem executes the memory op already decoded into c.op: fetch
// bookkeeping, demand faults, translation, and the data access.
func (m *Machine) stepMem(c *simCore) {
	// Instruction fetch: every FetchEvery-th op walks the code region
	// through the ITLB/L1I (overlapped with the pipeline: structure
	// activity, no cycle charge).
	c.fetchCnt++
	if c.fetchCnt >= m.cfg.FetchEvery {
		c.fetchCnt = 0
		va := c.codeBase + addr.V(c.codePos)
		c.codePos = (c.codePos + addr.LineSize) % codeBytes
		if cost := m.space.Touch(va); cost > 0 {
			c.clock += cost
			c.faultCycles += cost
		}
		pa := c.mmu.TranslateCode(va)
		m.hier.Access(c.id, c.clock, pa, access.Read, access.Code)
	}

	v := c.op.Addr
	op := access.Read
	if c.op.Kind == workload.Store {
		op = access.Write
		c.stores++
	} else {
		c.loads++
	}

	// OS demand paging resolves before the hardware retry of the access.
	if cost := m.space.Touch(v); cost > 0 {
		c.clock += cost
		c.faultCycles += cost
	}

	// Address translation (the op's PC feeds PCAX; others ignore it).
	pa, tEnd := c.mmu.TranslatePC(c.clock, v, op, c.op.PC)
	c.translationCycles += tEnd - c.clock
	c.clock = tEnd

	// The data access itself.
	done := m.hier.Access(c.id, c.clock, pa, op, access.Data)
	c.dataCycles += done - c.clock
	c.clock = done
}

// run advances all cores to the target instruction count (per core) on
// the event engine. Cores seed the queue at their local clocks; the
// engine's (time, core, seq) dispatch order interleaves them in global
// time order. The phase ends when the queue drains: every core has
// issued its budget and (staged front-end) retired its in-flight window.
func (m *Machine) run(target uint64) {
	m.target = target
	m.eng.Rewind() // cores may re-enter before the last phase's horizon
	for _, c := range m.cores {
		if c.instructions < target {
			m.scheduleFrontEnd(c, c.clock)
		}
	}
	m.eng.Run()
	for _, c := range m.cores {
		// Drain: a staged front-end is done when its last in-flight op
		// retires, which may trail the front-end clock.
		if c.clock < c.maxDone {
			c.clock = c.maxDone
		}
	}
}

// scheduleFrontEnd schedules core c's next front-end event at time t.
func (m *Machine) scheduleFrontEnd(c *simCore, t uint64) {
	m.eng.Schedule(t, c.id, c, evFrontEnd, 0)
}

// stepEvent is the serial path's event (Machine.serial), which
// reproduces the pre-engine min-clock step loop bit for bit. It
// executes the memory op this event was scheduled for (if one is
// pending), then decodes ahead: runs of compute ops execute inline — a
// compute op touches only the core's private clock and counters, so an
// event per op would be front-end bookkeeping no other actor could
// observe — and the next memory op is deferred to a fresh event at
// exactly the dispatch time an event per op would give it. Every shared-structure access therefore
// keeps its pre-fusion (time, core) dispatch slot while the engine
// round-trips for compute ops disappear. c.opValid marks the deferred
// op between the two events (the staged front-end owns the same
// flag; the paths are mutually exclusive per configuration).
func (m *Machine) stepEvent(c *simCore) {
	if c.opValid {
		c.opValid = false
		m.stepMem(c)
	}
	for c.instructions < m.target {
		c.gen.Next(&c.op)
		c.instructions++
		switch c.op.Kind {
		case workload.Compute:
			c.clock += uint64(c.op.Cycles)
			c.computeCycles += uint64(c.op.Cycles)
		case workload.Load, workload.Store:
			c.opValid = true
			m.eng.Schedule(c.clock, c.id, c, evFrontEnd, 0)
			return
		default:
			panic(fmt.Sprintf("sim: unknown op kind %d", c.op.Kind))
		}
	}
}

// Stages of the staged front-end's per-op pipeline (issueStaged). A stage that
// advances the clock (a fault, a compute burst) reschedules the
// front-end at the new time so other actors' earlier events dispatch
// first and every memory-system request is issued in global time order.
const (
	stFetch       = iota // fetch bookkeeping + code-side demand fault
	stFetchAccess        // code fetch through the ITLB/L1I
	stDataFault          // data-side demand fault
	stIssue              // translation request + data access issue
)

// issueStaged is the staged front-end (Config.MLP > 1, or any core on a
// shared walker): decode and issue ops until the window fills, the op
// stream needs sim time (compute, faults), or the phase budget is
// reached. Memory ops enter the window and complete via engine events;
// the front-end does not wait for them unless the window is full.
func (m *Machine) issueStaged(c *simCore) {
	for {
		if !c.opValid {
			if c.instructions >= m.target {
				return // issued everything; completions drain the window
			}
			c.gen.Next(&c.op)
			c.instructions++
			c.opValid = true
			c.stage = stFetch
		}
		switch c.op.Kind {
		case workload.Compute:
			c.opValid = false
			c.clock += uint64(c.op.Cycles)
			c.computeCycles += uint64(c.op.Cycles)
			m.scheduleFrontEnd(c, c.clock)
			return
		case workload.Load, workload.Store:
		default:
			panic(fmt.Sprintf("sim: unknown op kind %d", c.op.Kind))
		}
		if c.stage == stFetch {
			c.stage = stFetchAccess
			c.fetchDue = false
			c.fetchCnt++
			if c.fetchCnt >= m.cfg.FetchEvery {
				c.fetchCnt = 0
				c.fetchDue = true
				c.fetchVA = c.codeBase + addr.V(c.codePos)
				c.codePos = (c.codePos + addr.LineSize) % codeBytes
				if cost := m.space.Touch(c.fetchVA); cost > 0 {
					c.clock += cost
					c.faultCycles += cost
					m.scheduleFrontEnd(c, c.clock)
					return
				}
			}
		}
		if c.stage == stFetchAccess {
			c.stage = stDataFault
			if c.fetchDue {
				pa := c.mmu.TranslateCode(c.fetchVA)
				m.hier.Access(c.id, c.clock, pa, access.Read, access.Code)
			}
		}
		if c.stage == stDataFault {
			c.stage = stIssue
			if cost := m.space.Touch(c.op.Addr); cost > 0 {
				c.clock += cost
				c.faultCycles += cost
				m.scheduleFrontEnd(c, c.clock)
				return
			}
		}
		// stIssue: the op needs a window slot.
		if c.inFlight >= m.cfg.MLP {
			c.stalled = true
			return // a completion event resumes the front-end
		}
		v := c.op.Addr
		op := access.Read
		if c.op.Kind == workload.Store {
			op = access.Write
			c.stores++
		} else {
			c.loads++
		}
		c.opValid = false
		c.inFlight++
		for len(c.windowHist) <= c.inFlight {
			c.windowHist = append(c.windowHist, 0)
		}
		c.windowHist[c.inFlight]++
		m.issueMemOp(c, c.clock, v, op, c.op.PC)
	}
}

// memOp is one in-flight load/store of the staged front-end: the
// context needed when its translation completes. Records are pooled on the machine's free
// list and handed to the MMU as TranslationClients, so issuing an op
// allocates nothing in steady state.
type memOp struct {
	c      *simCore
	issued uint64
	op     access.Op
	next   *memOp
}

var _ core.TranslationClient = (*memOp)(nil)

// OnTranslated implements core.TranslationClient: issue the data access
// at the translation's completion, recycle the record, and schedule the
// window-release event that retires the op.
func (o *memOp) OnTranslated(pa addr.P, at uint64) {
	c := o.c
	m := c.m
	c.translationCycles += at - o.issued
	done := m.hier.Access(c.id, at, pa, o.op, access.Data)
	c.dataCycles += done - at
	m.putMemOp(o)
	m.eng.Schedule(done, c.id, c, evMemOpDone, 0)
}

// getMemOp takes a pooled op record (or grows the pool).
func (m *Machine) getMemOp(c *simCore, issued uint64, op access.Op) *memOp {
	o := m.opFree
	if o == nil {
		o = &memOp{}
	} else {
		m.opFree = o.next
	}
	o.c, o.issued, o.op, o.next = c, issued, op, nil
	return o
}

// putMemOp returns a retired record to the free list.
func (m *Machine) putMemOp(o *memOp) {
	o.c = nil
	o.next = m.opFree
	m.opFree = o
}

// issueMemOp sends one load/store down the translation+access pipeline:
// the translation completes as an engine event (inline for TLB hits),
// the data access issues inside that completion, and a window-release
// event retires the op.
func (m *Machine) issueMemOp(c *simCore, issued uint64, v addr.V, op access.Op, pc uint64) {
	c.mmu.TranslateAsyncPC(m.eng, issued, v, op, pc, m.getMemOp(c, issued, op))
}

// completeMemOp retires one in-flight op at time done and resumes a
// front-end that stalled on the full window.
func (m *Machine) completeMemOp(c *simCore, done uint64) {
	c.inFlight--
	if done > c.maxDone {
		c.maxDone = done
	}
	if c.stalled {
		c.stalled = false
		// Remaining completion events are no earlier than this one, so
		// the stalled front-end resumes exactly when its slot freed.
		if done > c.clock {
			c.clock = done
		}
		m.issueStaged(c)
	}
}

// resetStats zeroes every statistic at the warmup/measurement boundary.
func (m *Machine) resetStats() {
	m.hier.ResetStats()
	m.space.ResetFaultStats()
	for _, c := range m.cores {
		c.mmu.ResetStats()
		c.start = c.clock
		c.instructions = 0
		c.loads, c.stores = 0, 0
		c.computeCycles = 0
		c.translationCycles = 0
		c.dataCycles = 0
		c.faultCycles = 0
		for i := range c.windowHist {
			c.windowHist[i] = 0
		}
	}
}

// Run executes warmup, resets statistics, executes the measurement
// window, and collects results.
func (m *Machine) Run() *Result {
	m.run(m.cfg.Warmup)
	m.resetStats() // zeroes per-core instruction counters too
	m.run(m.cfg.Instructions)
	return m.collect()
}

// RunConfig builds a machine from cfg and runs it.
func RunConfig(cfg Config) (*Result, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}
