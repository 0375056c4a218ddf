package main

import (
	"fmt"
	"time"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/engine"
	"ndpage/internal/memsys"
	"ndpage/internal/osmm"
	"ndpage/internal/phys"
	"ndpage/internal/sim"
	"ndpage/internal/walker"
	"ndpage/internal/workload"
	"ndpage/internal/xrand"
)

// The traced replica rebuilds a machine from the constructors sim.New
// uses and drives the simulator's core loop itself, so that host time
// can be split across the layers by timing calls into each layer's
// public functions from outside. It must reproduce sim.RunConfig's
// Digest exactly; a mismatch fails the run.

// Layers the traced replica attributes host time to.
const (
	lNext     = iota // workload: Generator.Next
	lTouch           // osmm: AddressSpace.Touch
	lXlatHit         // core: TranslatePC/TranslateAsyncPC that resolved without a walk
	lXlatWalk        // core: translations that walked (walker, PWC, page table, PTE traffic)
	lXlatCode        // core: TranslateCode (instruction fetch)
	lAccess          // memsys: Hierarchy.Access
	lEngine          // engine: Step self time plus Schedule
	lGlue            // the core model's own bookkeeping between layer calls
	lCal             // empty spans: the cost of the clock reads themselves
	nLayers
)

var layerNames = [nLayers]string{
	lNext:     "workload.next",
	lTouch:    "osmm.touch",
	lXlatHit:  "core.translate_hit",
	lXlatWalk: "core.translate_walk",
	lXlatCode: "core.translate_code",
	lAccess:   "memsys.access",
	lEngine:   "engine.dispatch",
	lGlue:     "sim.glue",
}

// Values the replica shares with sim.New; the digest check catches drift.
const (
	codeBytes    = 16 << 10
	holeFraction = 0.025
	holeSeedMul  = 7919
	threadSeedMu = 1_000_003
)

// tracer accumulates per-layer self time over sampled engine events, in
// clock ticks. Spans nest: a span's raw self time is its duration minus
// its direct children's durations. Every span carries the cost of its
// own clock reads, and costs its parent one more; net removes both,
// using the in-place cost of an empty span (lCal) measured once in every
// sampled event, so the net self times of one event sum to its
// untraced cost.
type tracer struct {
	on        bool    // the current engine event is sampled
	rng       uint64  // sampler state
	nsPerTick float64 // clock tick length
	child     int64   // summed duration of the open span's finished direct children
	kids      int64   // their number
	raw       [nLayers]int64
	spans     [nLayers]int64 // spans closed
	nkids     [nLayers]int64 // direct children of those spans
	calls     [nLayers]float64
	events    float64 // sampled engine events
}

// span is an open span: its start and its parent's child accounting.
type span struct{ start, child, kids int64 }

// sampleShift sets the sampling rate: one engine event in 2^sampleShift.
const sampleShift = 4

func newTracer(seed uint64) *tracer {
	t0, k0 := time.Now(), ticks()
	time.Sleep(20 * time.Millisecond)
	ns, k := time.Since(t0), ticks()-k0
	return &tracer{rng: seed*0x9E3779B97F4A7C15 | 1, nsPerTick: float64(ns) / float64(k)}
}

// sample draws the next sampling decision. The draw is a xorshift
// stream independent of the simulated ops, so which memory ops are
// timed does not correlate with their kind or position in a kernel's
// op pattern.
func (t *tracer) sample() bool {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x>>(64-sampleShift) == 0
}

func (t *tracer) begin() span {
	sp := span{child: t.child, kids: t.kids}
	t.child, t.kids = 0, 0
	sp.start = ticks()
	return sp
}

// end closes sp as layer l; count marks a call of the layer (as opposed
// to more time for calls already counted).
func (t *tracer) end(sp span, l int, count bool) {
	d := ticks() - sp.start
	t.raw[l] += d - t.child
	t.spans[l]++
	t.nkids[l] += t.kids
	if count {
		t.calls[l]++
	}
	t.child, t.kids = sp.child+d, sp.kids+1
}

// net returns layer l's self time in ns, clock-read costs removed.
func (t *tracer) net(l int) float64 {
	c := ratio(float64(t.raw[lCal]), float64(t.spans[lCal]))
	return (float64(t.raw[l]) - c*float64(t.spans[l]+t.nkids[l])) * t.nsPerTick
}

// Engine event kinds of a traced core.
const (
	evFrontEnd uint8 = iota
	evMemOpDone
)

// Front-end stages of the non-blocking core (MLP > 1).
const (
	stFetch = iota
	stFetchAccess
	stDataFault
	stIssue
)

// tcore is one simulated core of the traced replica.
type tcore struct {
	id    int
	d     *replica
	clock uint64
	gen   workload.Generator
	mmu   *core.MMU
	op    workload.Op

	codeBase addr.V
	codePos  uint64
	fetchCnt int

	opValid  bool
	inFlight int
	stage    int
	stalled  bool
	fetchDue bool
	fetchVA  addr.V
	maxDone  uint64

	start         uint64
	instructions  uint64
	loads, stores uint64
}

// replica is a machine rebuilt for tracing.
type replica struct {
	cfg    sim.Config
	hier   *memsys.Hierarchy
	space  *osmm.AddressSpace
	eng    *engine.Engine
	cores  []*tcore
	target uint64
	tr     *tracer

	opFree   *tmemOp
	inlineXl uint64 // translations completed inside TranslateAsyncPC
	wrapped  []*timedActor
	events   uint64 // engine events dispatched
}

// newReplica builds the machine exactly as sim.New does.
func newReplica(cfg sim.Config, tr *tracer) (*replica, error) {
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
	mcfg.VictimaGate = cfg.VictimaGate
	if cfg.HBMChannels > 0 {
		mcfg.DRAM.Channels = cfg.HBMChannels
	}
	hier := memsys.New(mcfg)

	table := cfg.Mechanism.NewTable(alloc)
	oscfg := osmm.DefaultConfig(cfg.Mechanism.Policy(), alloc.TotalFrames())
	oscfg.HoleFraction = holeFraction
	oscfg.HoleSeed = cfg.Seed * holeSeedMul
	oscfg.DemandPaging = cfg.DemandPaging
	oscfg.ResidentLimitFrames = cfg.ResidentLimitBytes / addr.PageSize
	oscfg.IdentityMap = cfg.Mechanism == core.NMT
	oscfg.IdentityPromote = cfg.IdentityPromote
	space := osmm.New(table, alloc, oscfg)

	w := spec.New()
	w.Init(space, rng, cfg.FootprintBytes, cfg.Cores)

	d := &replica{cfg: cfg, hier: hier, space: space, eng: engine.New(), tr: tr}
	opts := core.Options{
		DisablePWC:       cfg.DisablePWC,
		ECHWayPrediction: cfg.ECHWayPrediction,
		WalkerWidth:      cfg.WalkerWidth,
		PCXEntries:       cfg.PCXEntries,
	}
	if cfg.Mechanism == core.NMT {
		opts.Identity = space
	}
	if cfg.SharedWalker {
		opts.SharedUnit = core.NewWalkUnit(cfg.Mechanism, table, hier, opts)
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &tcore{id: i, d: d}
		c.gen = w.Thread(i, cfg.Seed*threadSeedMu+uint64(i))
		c.mmu = core.NewMMUWithOptions(cfg.Mechanism, i, table, hier, opts)
		c.codeBase = space.Alloc(codeBytes, fmt.Sprintf("code.%d", i))
		d.cores = append(d.cores, c)
	}
	return d, nil
}

// run executes warmup and the measured window and returns the digest.
func (d *replica) run() Digest {
	d.phase(d.cfg.Warmup)
	d.hier.ResetStats()
	d.space.ResetFaultStats()
	for _, c := range d.cores {
		c.mmu.ResetStats()
		c.start = c.clock
		c.instructions = 0
		c.loads, c.stores = 0, 0
	}
	d.phase(d.cfg.Instructions)
	return d.digest()
}

// phase advances every core to target ops, timing a sample of engine
// events end to end.
func (d *replica) phase(target uint64) {
	d.target = target
	d.eng.Rewind()
	for _, c := range d.cores {
		if c.instructions < target {
			d.eng.Schedule(c.clock, c.id, c, evFrontEnd, 0)
		}
	}
	tr := d.tr
	for {
		tr.on = tr.sample()
		if !tr.on {
			if !d.eng.Step() {
				break
			}
			d.events++
			continue
		}
		sp := tr.begin()
		if !d.eng.Step() {
			break
		}
		tr.end(sp, lEngine, true)
		tr.child, tr.kids = 0, 0
		tr.events++
		d.events++
	}
	tr.on = false
	for _, c := range d.cores {
		if c.clock < c.maxDone {
			c.clock = c.maxDone
		}
	}
}

func (d *replica) digest() Digest {
	var g Digest
	seen := make(map[*walker.Walker]bool)
	for _, c := range d.cores {
		el := c.clock - c.start
		if el > g.Cycles {
			g.Cycles = el
		}
		g.TotalCycles += el
		g.Instructions += c.instructions
		g.Loads += c.loads
		g.Stores += c.stores
		if wk := c.mmu.Walker(); !seen[wk] {
			seen[wk] = true
			ws := wk.Stats()
			g.Walks += ws.Walks.Value()
			g.PTEAccesses += ws.PTEAccesses.Value()
			g.MSHRHits += ws.MSHRHits.Value()
		}
	}
	ds := d.hier.DRAM().Stats()
	for cls := range g.DRAM {
		g.DRAM[cls] = ds.PerClass[cls].Value()
	}
	os := d.space.Stats()
	g.Faults4K, g.Faults2M = os.Faults4K, os.Faults2M
	return g
}

// OnEvent implements engine.Actor. The whole handler is a glue span;
// the layer calls inside it are child spans.
func (c *tcore) OnEvent(now uint64, kind uint8, _ uint64) {
	d := c.d
	tr := d.tr
	var sp span
	if tr.on {
		sp = tr.begin()
		tr.end(tr.begin(), lCal, false)
	}
	switch {
	case kind == evMemOpDone:
		d.completeMemOp(c, now)
	case d.cfg.MLP == 1:
		d.stepEvent(c)
	default:
		d.issueStaged(c)
	}
	if tr.on {
		tr.end(sp, lGlue, false)
	}
}

// Layer calls, timed when the current event is sampled.

func (d *replica) next(c *tcore) {
	if !d.tr.on {
		c.gen.Next(&c.op)
		return
	}
	sp := d.tr.begin()
	c.gen.Next(&c.op)
	d.tr.end(sp, lNext, true)
}

func (d *replica) touch(v addr.V) uint64 {
	if !d.tr.on {
		return d.space.Touch(v)
	}
	sp := d.tr.begin()
	cost := d.space.Touch(v)
	d.tr.end(sp, lTouch, true)
	return cost
}

func (d *replica) translateCode(c *tcore, v addr.V) addr.P {
	if !d.tr.on {
		return c.mmu.TranslateCode(v)
	}
	sp := d.tr.begin()
	pa := c.mmu.TranslateCode(v)
	d.tr.end(sp, lXlatCode, true)
	return pa
}

func (d *replica) access(id int, t uint64, pa addr.P, op access.Op, cls access.Class) uint64 {
	if !d.tr.on {
		return d.hier.Access(id, t, pa, op, cls)
	}
	sp := d.tr.begin()
	done := d.hier.Access(id, t, pa, op, cls)
	d.tr.end(sp, lAccess, true)
	return done
}

func (d *replica) schedule(t uint64, actor int, target engine.Actor, kind uint8, payload uint64) {
	if !d.tr.on {
		d.eng.Schedule(t, actor, target, kind, payload)
		return
	}
	sp := d.tr.begin()
	d.eng.Schedule(t, actor, target, kind, payload)
	d.tr.end(sp, lEngine, false)
}

// walkCount is the number of walk requests c's walker has served.
func walkCount(c *tcore) uint64 {
	ws := c.mmu.Walker().Stats()
	return ws.Walks.Value() + ws.MSHRHits.Value()
}

func (d *replica) translatePC(c *tcore, t uint64, v addr.V, op access.Op, pc uint64) (addr.P, uint64) {
	if !d.tr.on {
		return c.mmu.TranslatePC(t, v, op, pc)
	}
	before := walkCount(c)
	sp := d.tr.begin()
	pa, done := c.mmu.TranslatePC(t, v, op, pc)
	l := lXlatHit
	if walkCount(c) != before {
		l = lXlatWalk
	}
	d.tr.end(sp, l, true)
	return pa, done
}

// stepEvent mirrors the blocking core (MLP = 1): run the deferred
// memory op, then decode ahead through compute ops to the next one.
func (d *replica) stepEvent(c *tcore) {
	if c.opValid {
		c.opValid = false
		d.stepMem(c)
	}
	for c.instructions < d.target {
		d.next(c)
		c.instructions++
		switch c.op.Kind {
		case workload.Compute:
			c.clock += uint64(c.op.Cycles)
		case workload.Load, workload.Store:
			c.opValid = true
			d.schedule(c.clock, c.id, c, evFrontEnd, 0)
			return
		default:
			panic(fmt.Sprintf("simbench: unknown op kind %d", c.op.Kind))
		}
	}
}

// stepMem runs one memory op to completion: fetch, faults, translation,
// data access.
func (d *replica) stepMem(c *tcore) {
	c.fetchCnt++
	if c.fetchCnt >= d.cfg.FetchEvery {
		c.fetchCnt = 0
		va := c.codeBase + addr.V(c.codePos)
		c.codePos = (c.codePos + addr.LineSize) % codeBytes
		c.clock += d.touch(va)
		pa := d.translateCode(c, va)
		d.access(c.id, c.clock, pa, access.Read, access.Code)
	}
	op := access.Read
	if c.op.Kind == workload.Store {
		op = access.Write
		c.stores++
	} else {
		c.loads++
	}
	c.clock += d.touch(c.op.Addr)
	pa, t := d.translatePC(c, c.clock, c.op.Addr, op, c.op.PC)
	c.clock = d.access(c.id, t, pa, op, access.Data)
}

// issueStaged mirrors the non-blocking front-end (MLP > 1).
func (d *replica) issueStaged(c *tcore) {
	for {
		if !c.opValid {
			if c.instructions >= d.target {
				return
			}
			d.next(c)
			c.instructions++
			c.opValid = true
			c.stage = stFetch
		}
		switch c.op.Kind {
		case workload.Compute:
			c.opValid = false
			c.clock += uint64(c.op.Cycles)
			d.schedule(c.clock, c.id, c, evFrontEnd, 0)
			return
		case workload.Load, workload.Store:
		default:
			panic(fmt.Sprintf("simbench: unknown op kind %d", c.op.Kind))
		}
		if c.stage == stFetch {
			c.stage = stFetchAccess
			c.fetchDue = false
			c.fetchCnt++
			if c.fetchCnt >= d.cfg.FetchEvery {
				c.fetchCnt = 0
				c.fetchDue = true
				c.fetchVA = c.codeBase + addr.V(c.codePos)
				c.codePos = (c.codePos + addr.LineSize) % codeBytes
				if cost := d.touch(c.fetchVA); cost > 0 {
					c.clock += cost
					d.schedule(c.clock, c.id, c, evFrontEnd, 0)
					return
				}
			}
		}
		if c.stage == stFetchAccess {
			c.stage = stDataFault
			if c.fetchDue {
				pa := d.translateCode(c, c.fetchVA)
				d.access(c.id, c.clock, pa, access.Read, access.Code)
			}
		}
		if c.stage == stDataFault {
			c.stage = stIssue
			if cost := d.touch(c.op.Addr); cost > 0 {
				c.clock += cost
				d.schedule(c.clock, c.id, c, evFrontEnd, 0)
				return
			}
		}
		if c.inFlight >= d.cfg.MLP {
			c.stalled = true
			return
		}
		op := access.Read
		if c.op.Kind == workload.Store {
			op = access.Write
			c.stores++
		} else {
			c.loads++
		}
		c.opValid = false
		c.inFlight++
		d.issueMemOp(c, op)
	}
}

// tmemOp is one in-flight load/store of the non-blocking core.
type tmemOp struct {
	c      *tcore
	issued uint64
	op     access.Op
	next   *tmemOp
}

// OnTranslated implements core.TranslationClient: issue the data access
// and schedule the op's retirement.
func (o *tmemOp) OnTranslated(pa addr.P, at uint64) {
	c := o.c
	d := c.d
	d.inlineXl++
	var sp span
	if d.tr.on {
		sp = d.tr.begin()
	}
	done := d.access(c.id, at, pa, o.op, access.Data)
	o.c = nil
	o.next = d.opFree
	d.opFree = o
	d.schedule(done, c.id, c, evMemOpDone, 0)
	if d.tr.on {
		d.tr.end(sp, lGlue, false)
	}
}

func (d *replica) issueMemOp(c *tcore, op access.Op) {
	o := d.opFree
	if o == nil {
		o = &tmemOp{}
	} else {
		d.opFree = o.next
	}
	o.c, o.issued, o.op, o.next = c, c.clock, op, nil
	if !d.tr.on {
		c.mmu.TranslateAsyncPC(d, c.clock, c.op.Addr, op, c.op.PC, o)
		return
	}
	before := d.inlineXl
	sp := d.tr.begin()
	c.mmu.TranslateAsyncPC(d, c.clock, c.op.Addr, op, c.op.PC, o)
	l := lXlatWalk
	if d.inlineXl != before {
		l = lXlatHit
	}
	d.tr.end(sp, l, true)
}

func (d *replica) completeMemOp(c *tcore, done uint64) {
	c.inFlight--
	if done > c.maxDone {
		c.maxDone = done
	}
	if c.stalled {
		c.stalled = false
		if done > c.clock {
			c.clock = done
		}
		d.issueStaged(c)
	}
}

// Schedule implements walker.Scheduler for the MMUs' asynchronous
// walks: walker events are routed through a timing wrapper so their
// host time lands in the walk layer.
func (d *replica) Schedule(t uint64, actor int, target engine.Actor, kind uint8, payload uint64) {
	d.schedule(t, actor, d.wrap(target), kind, payload)
}

func (d *replica) wrap(target engine.Actor) engine.Actor {
	for _, w := range d.wrapped {
		if w.inner == target {
			return w
		}
	}
	w := &timedActor{inner: target, d: d}
	d.wrapped = append(d.wrapped, w)
	return w
}

// timedActor times a walker's engine events as walk-layer work.
type timedActor struct {
	inner engine.Actor
	d     *replica
}

func (w *timedActor) OnEvent(now uint64, kind uint8, payload uint64) {
	tr := w.d.tr
	if !tr.on {
		w.inner.OnEvent(now, kind, payload)
		return
	}
	sp := tr.begin()
	w.inner.OnEvent(now, kind, payload)
	tr.end(sp, lXlatWalk, false)
}
