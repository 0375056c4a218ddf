package workload

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

// graphData is the shared synthetic graph used by the GraphBIG kernels:
// a CSR-like layout with fixed-stride adjacency slots. Topology is
// derived from a stateless hash, so the multi-GB edge array exists only
// as virtual addresses; the *structure* (degrees, neighbor ids) is still
// deterministic and consistent across traversals, which is what the
// kernels' control flow needs.
type graphData struct {
	n       uint64 // vertices
	maxDeg  uint64 // adjacency slots per vertex
	seed    uint64
	local   uint64 // percent of edges to nearby vertices (community locality)
	threads int

	// vertices is an array-of-structs region of 64 B vertex records —
	// GraphBIG is a property-graph framework whose vertices are fat
	// objects (row pointers, properties, framework metadata). The AoS
	// layout is what makes neighbour gathers touch a multi-GB region,
	// which is the paper's address-translation stress.
	vertices addr.V
	// edges holds fixed-stride CSR adjacency slots, 4 B per slot.
	edges addr.V
}

// vertexRecord is the size of one vertex object. Field offsets within it:
// row pointers at +0, primary property (rank/sigma) at +8, secondary
// property (next rank/dependency) at +16, label (component/color/dist)
// at +24; the rest is framework metadata.
const (
	vertexRecord = 64
	fieldRow     = 0
	fieldPropA   = 8
	fieldPropB   = 16
	fieldLabel   = 24
)

// graphBytesPerVertex is the virtual footprint per vertex:
// the 64 B vertex object plus 4 B per adjacency slot.
func graphBytesPerVertex(maxDeg uint64) uint64 { return vertexRecord + 4*maxDeg }

// initGraph sizes the graph to the footprint and reserves its regions.
func (g *graphData) initGraph(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	if g.maxDeg == 0 {
		g.maxDeg = 16
	}
	g.threads = threads
	g.seed = rng.Uint64()
	g.n = footprint / graphBytesPerVertex(g.maxDeg)
	if g.n < 1<<16 {
		g.n = 1 << 16
	}
	g.vertices = mem.Alloc(vertexRecord*g.n, "vertex-objects")
	g.edges = mem.Alloc(4*g.n*g.maxDeg, "csr-edges")
}

// degree returns vertex u's degree in [maxDeg/2, maxDeg].
func (g *graphData) degree(u uint64) uint64 {
	return g.maxDeg/2 + xrand.Hash64(g.seed^u)%(g.maxDeg/2+1)
}

// hubPct is the percentage of edges that point at power-law hub vertices.
// Real graph datasets are scale-free: a thin head of hubs receives a
// large share of all edges, giving neighbour gathers genuine cache
// locality — the locality that PTE pollution destroys (Figure 7).
const hubPct = 30

// neighbor returns the k-th neighbor of u: a mix of power-law hubs,
// community-local vertices, and uniform-random vertices.
func (g *graphData) neighbor(u, k uint64) uint64 {
	h := xrand.Hash64(g.seed ^ (u*64 + k + 1))
	r := h % 100
	if r < hubPct {
		// Zipf-like hub selection: frac^8 concentrates ~22% of hub
		// draws on the hottest few hundred vertices.
		f := float64(h>>8&0xFFFFFF) / float64(1<<24)
		f2 := f * f
		f4 := f2 * f2
		return uint64(f4 * f4 * float64(g.n))
	}
	if g.local > 0 && r < hubPct+g.local {
		return (u + 1 + (h>>8)%4096) % g.n
	}
	return (h >> 8) % g.n
}

func (g *graphData) field(u uint64, off uint64) addr.V {
	return g.vertices + addr.V(vertexRecord*u+off)
}
func (g *graphData) edgeAddr(u, k uint64) addr.V {
	return g.edges + addr.V(4*(u*g.maxDeg+k))
}
func (g *graphData) propAAddr(u uint64) addr.V { return g.field(u, fieldPropA) }
func (g *graphData) propBAddr(u uint64) addr.V { return g.field(u, fieldPropB) }
func (g *graphData) labelAddr(u uint64) addr.V { return g.field(u, fieldLabel) }

// emitRow emits the row-pointer load for vertex u (both row bounds sit in
// the vertex object's first word pair — one line).
func (g *graphData) emitRow(e *emitter, u uint64) {
	e.load(g.field(u, fieldRow))
}

// sweeper iterates vertices in thread-strided order, the GraphBIG OpenMP
// partitioning.
type sweeper struct {
	g    *graphData
	next uint64
}

func newSweeper(g *graphData, core int) *sweeper {
	return &sweeper{g: g, next: uint64(core) % g.n}
}

func (s *sweeper) vertex() uint64 {
	u := s.next
	s.next += uint64(s.g.threads)
	if s.next >= s.g.n {
		s.next %= uint64(s.g.threads)
	}
	return u
}

// ---------------------------------------------------------------------------
// PR: PageRank. Sequential vertex sweep; per edge a random rank gather;
// one rank store per vertex.

type pagerank struct{ graphData }

// NewPR returns the GraphBIG PageRank workload.
func NewPR() Workload { return &pagerank{graphData{local: 20}} }

func (p *pagerank) Name() string { return "pr" }

func (p *pagerank) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	p.initGraph(mem, rng, footprint, threads)
}

func (p *pagerank) Thread(core int, seed uint64) Generator {
	sw := newSweeper(&p.graphData, core)
	return newThread(func(e *emitter) {
		u := sw.vertex()
		p.emitRow(e, u)
		for k, d := uint64(0), p.degree(u); k < d; k++ {
			e.load(p.edgeAddr(u, k))
			e.load(p.propAAddr(p.neighbor(u, k))) // gather neighbor rank
			e.compute(1)
		}
		e.compute(2)            // damping arithmetic
		e.store(p.propBAddr(u)) // scatter new rank
	})
}

// ---------------------------------------------------------------------------
// CC: connected components by label propagation.

type concomp struct{ graphData }

// NewCC returns the GraphBIG Connected Components workload.
func NewCC() Workload { return &concomp{graphData{local: 30}} }

func (c *concomp) Name() string { return "cc" }

func (c *concomp) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	c.initGraph(mem, rng, footprint, threads)
}

func (c *concomp) Thread(core int, seed uint64) Generator {
	sw := newSweeper(&c.graphData, core)
	return newThread(func(e *emitter) {
		u := sw.vertex()
		c.emitRow(e, u)
		e.load(c.labelAddr(u))
		for k, d := uint64(0), c.degree(u); k < d; k++ {
			e.load(c.edgeAddr(u, k))
			e.load(c.labelAddr(c.neighbor(u, k)))
			e.compute(1) // min
		}
		e.store(c.labelAddr(u))
	})
}

// ---------------------------------------------------------------------------
// GC: greedy graph coloring.

type coloring struct{ graphData }

// NewGC returns the GraphBIG Graph Coloring workload.
func NewGC() Workload { return &coloring{graphData{local: 30}} }

func (c *coloring) Name() string { return "gc" }

func (c *coloring) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	c.initGraph(mem, rng, footprint, threads)
}

func (c *coloring) Thread(core int, seed uint64) Generator {
	sw := newSweeper(&c.graphData, core)
	return newThread(func(e *emitter) {
		u := sw.vertex()
		c.emitRow(e, u)
		for k, d := uint64(0), c.degree(u); k < d; k++ {
			e.load(c.edgeAddr(u, k))
			e.load(c.labelAddr(c.neighbor(u, k))) // neighbor color
			e.compute(1)                          // mark used color
		}
		e.compute(2) // first-fit scan
		e.store(c.labelAddr(u))
	})
}

// ---------------------------------------------------------------------------
// TC: triangle counting by adjacency-list intersection.

type triangles struct{ graphData }

// NewTC returns the GraphBIG Triangle Counting workload.
func NewTC() Workload { return &triangles{graphData{local: 40}} }

func (t *triangles) Name() string { return "tc" }

func (t *triangles) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	t.initGraph(mem, rng, footprint, threads)
}

func (t *triangles) Thread(core int, seed uint64) Generator {
	sw := newSweeper(&t.graphData, core)
	return newThread(func(e *emitter) {
		u := sw.vertex()
		t.emitRow(e, u)
		du := t.degree(u)
		for k := uint64(0); k < du; k++ {
			e.load(t.edgeAddr(u, k))
			v := t.neighbor(u, k)
			t.emitRow(e, v)
			// Merge-intersect adj(u) x adj(v): two sequential streams.
			dv := t.degree(v)
			for i, j := uint64(0), uint64(0); i < du && j < dv; {
				e.load(t.edgeAddr(u, i))
				e.load(t.edgeAddr(v, j))
				e.compute(1)
				if xrand.Hash64(u+i)&1 == 0 {
					i++
				} else {
					j++
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// BFS: level-synchronous breadth-first search. Real visited state drives
// control flow; the frontier queue lives in a lazily populated region
// that grows inside the measurement window.

type bfs struct {
	graphData
	queueVA   addr.V
	queueSpan uint64
	visitedVA addr.V
}

// NewBFS returns the GraphBIG Breadth-First Search workload.
func NewBFS() Workload { return &bfs{graphData: graphData{local: 25}} }

func (b *bfs) Name() string { return "bfs" }

func (b *bfs) Init(mem Mem, rng *xrand.RNG, footprint uint64, threads int) {
	// Reserve ~1/8 of the budget for traversal state.
	b.initGraph(mem, rng, footprint*7/8, threads)
	b.visitedVA = mem.Alloc(b.n/8+addr.PageSize, "bfs-visited")
	b.queueSpan = 4 * b.n
	b.queueVA = mem.AllocLazy(b.queueSpan*uint64(threads), "bfs-frontier")
}

// frontier is a traversal thread's work queue. Real vertex ids drive
// control flow; every enqueue and dequeue is also emitted against the
// thread's slice of the simulated frontier region.
type frontier struct {
	b     *bfs
	rng   *xrand.RNG
	queue []uint32
	head  int
	qBase addr.V // this thread's slice of the frontier region
	qPos  uint64 // monotonically increasing append cursor
}

func (b *bfs) newFrontier(core int, seed uint64) frontier {
	return frontier{
		b:     b,
		rng:   xrand.New(seed),
		qBase: b.queueVA + addr.V(b.queueSpan*uint64(core)),
	}
}

const bfsQueueCap = 1 << 15

func (f *frontier) qAddr() addr.V {
	a := f.qBase + addr.V(4*(f.qPos%(f.b.queueSpan/4)))
	f.qPos++
	return a
}

func (f *frontier) exhausted() bool { return f.head >= len(f.queue) }

// restart empties the queue, seeds it with a fresh random source and
// emits that enqueue. It returns the source.
func (f *frontier) restart(e *emitter) uint64 {
	f.queue = f.queue[:0]
	f.head = 0
	src := f.rng.Uint64n(f.b.n)
	f.queue = append(f.queue, uint32(src))
	e.store(f.qAddr())
	return src
}

// pop dequeues the next vertex. It does not emit the dequeue load.
func (f *frontier) pop() uint64 {
	u := uint64(f.queue[f.head])
	f.head++
	if f.head > bfsQueueCap {
		// Compact the consumed prefix to bound Go-side memory.
		f.queue = append(f.queue[:0], f.queue[f.head:]...)
		f.head = 0
	}
	return u
}

// push enqueues v, unless bfsQueueCap vertices are already pending, and
// emits the enqueue store either way: the simulated region is unbounded.
func (f *frontier) push(e *emitter, v uint64) {
	if len(f.queue)-f.head < bfsQueueCap {
		f.queue = append(f.queue, uint32(v))
	}
	e.store(f.qAddr())
}

// vertexSet is a traversal's host-side visited set over ids [0, n): the
// array/bitmap container split of Roaring bitmaps. Ids split into
// 64Ki-vertex chunks. A chunk keeps the sorted low halves of its members
// until it holds setListMax of them, the size of its bitmap, and then
// switches to the [1024]uint64 bitmap for good. A traversal that visits
// 0.07% of a large graph so costs a few bytes per visit instead of n/8
// bytes. No chunk ever holds more than its 8 KB bitmap plus a fixed
// 288 B: its header and its first list. All chunks carve their first
// lists from one slab, so the lists cost one allocation until a chunk
// outgrows its first.
type vertexSet struct {
	chunks []setChunk
}

type setChunk struct {
	list []uint16         // sorted members while sparse; nil once dense
	bits *[1 << 10]uint64 // members once dense
}

const (
	setListMax  = 4096 // 8 KB of uint16, the size of a chunk bitmap
	setFirstCap = 128  // capacity of each chunk's first list
	setWindow   = 64   // entries add searches around lo's interpolated position
)

func newVertexSet(n uint64) vertexSet {
	chunks := make([]setChunk, (n+1<<16-1)>>16)
	slab := make([]uint16, setFirstCap*len(chunks))
	for i := range chunks {
		chunks[i].list = slab[i*setFirstCap : i*setFirstCap : (i+1)*setFirstCap]
	}
	return vertexSet{chunks: chunks}
}

// add inserts v and reports whether it was absent.
func (s *vertexSet) add(v uint64) bool {
	c := &s.chunks[v>>16]
	lo := uint16(v)
	if c.bits != nil {
		w, m := &c.bits[lo>>6], uint64(1)<<(lo&63)
		if *w&m != 0 {
			return false
		}
		*w |= m
		return true
	}
	a := c.list
	// Branch-free search: i ends at the last member <= lo, or at 0. The
	// step is a mask, not a branch: the compiler keeps a branch (not a
	// conditional move) for an index that feeds a load, and at every
	// level that branch is a coin toss for the predictor.
	i, n := 0, len(a)
	if n > setWindow {
		// A sparse chunk's members spread near-uniformly over its ids, so
		// lo's interpolated position is usually within half a window of
		// the answer. Two independent loads check that the window
		// brackets it; the search then stays inside the window's lines
		// instead of taking a dependent miss per level.
		s := min(max(int(uint64(lo)*uint64(n)>>16)-setWindow/2, 0), n-setWindow)
		if a[s] <= lo && (s+setWindow == n || a[s+setWindow] > lo) {
			i, n = s, setWindow
		}
	}
	for n > 1 {
		half := n >> 1
		d := int(lo) - int(a[i+half]) // >= 0 exactly when a[i+half] <= lo
		i += half &^ (d >> 63)
		n -= half
	}
	if len(a) > 0 {
		d := int(lo) - int(a[i])
		if d == 0 {
			return false
		}
		i += 1 + d>>63 // insert after a[i] exactly when a[i] < lo
	}
	if len(a) == setListMax {
		c.bits = new([1 << 10]uint64)
		for _, x := range a {
			c.bits[x>>6] |= 1 << (x & 63)
		}
		c.bits[lo>>6] |= 1 << (lo & 63)
		c.list = nil
		return true
	}
	if len(a) == cap(a) {
		grown := make([]uint16, len(a), min(2*cap(a), setListMax))
		copy(grown, a)
		a = grown
	}
	a = a[:len(a)+1]
	copy(a[i+1:], a[i:])
	a[i] = lo
	c.list = a
	return true
}

// reset empties the set. Lists keep their capacity and dense chunks
// their bitmaps, so a new traversal reuses them.
func (s *vertexSet) reset() {
	for i := range s.chunks {
		c := &s.chunks[i]
		if c.bits != nil {
			*c.bits = [1 << 10]uint64{}
		} else {
			c.list = c.list[:0]
		}
	}
}

// bfsThread holds one traversal's real state.
type bfsThread struct {
	frontier
	visited vertexSet
}

func (b *bfs) Thread(core int, seed uint64) Generator {
	t := &bfsThread{frontier: b.newFrontier(core, seed), visited: newVertexSet(b.n)}
	return newThread(t.step)
}

func (t *bfsThread) step(e *emitter) {
	b := t.b
	if t.exhausted() {
		// Frontier exhausted: restart from a fresh source.
		t.visited.reset()
		t.visited.add(t.restart(e))
		return
	}
	u := t.pop()
	e.load(t.qAddr()) // dequeue
	b.emitRow(e, u)
	for k, d := uint64(0), b.degree(u); k < d; k++ {
		e.load(b.edgeAddr(u, k))
		v := b.neighbor(u, k)
		e.load(b.visitedVA + addr.V(v/8)) // visited probe
		if t.visited.add(v) {
			e.store(b.visitedVA + addr.V(v/8))
			t.push(e, v) // enqueue (append to frontier region)
			e.compute(1)
		}
	}
}

// ---------------------------------------------------------------------------
// BC: betweenness centrality — BFS forward passes plus a reverse
// dependency-accumulation sweep over the discovered order.

type bc struct {
	bfs
}

// NewBC returns the GraphBIG Betweenness Centrality workload.
func NewBC() Workload { return &bc{bfs{graphData: graphData{local: 25}}} }

func (b *bc) Name() string { return "bc" }

type bcThread struct {
	bfsThread
	order   []uint32 // visit order of the current traversal
	backPos int      // reverse sweep position, -1 when in forward phase
}

func (b *bc) Thread(core int, seed uint64) Generator {
	t := &bcThread{
		bfsThread: bfsThread{frontier: b.newFrontier(core, seed), visited: newVertexSet(b.n)},
		backPos:   -1,
	}
	return newThread(t.step)
}

func (t *bcThread) step(e *emitter) {
	b := t.b
	if t.backPos >= 0 {
		// Reverse phase: accumulate dependencies.
		u := uint64(t.order[t.backPos])
		t.backPos--
		e.load(b.propAAddr(u)) // sigma[u]
		for k, d := uint64(0), b.degree(u); k < d; k++ {
			v := b.neighbor(u, k)
			e.load(b.propAAddr(v)) // sigma[v]
			e.load(b.propBAddr(v)) // dep[v]
			e.compute(1)
		}
		e.store(b.propBAddr(u)) // dep[u]
		if t.backPos < 0 {
			t.order = t.order[:0] // traversal finished
		}
		return
	}
	if t.exhausted() {
		if len(t.order) > 0 {
			// Forward phase done: switch to the reverse sweep.
			t.backPos = len(t.order) - 1
			return
		}
		t.visited.reset()
		t.visited.add(t.restart(e))
		return
	}
	u := t.pop()
	if len(t.order) < 4*bfsQueueCap {
		t.order = append(t.order, uint32(u))
	}
	e.load(t.qAddr())
	b.emitRow(e, u)
	e.load(b.propAAddr(u)) // sigma[u]
	e.compute(1)
	for k, d := uint64(0), b.degree(u); k < d; k++ {
		e.load(b.edgeAddr(u, k))
		v := b.neighbor(u, k)
		e.load(b.visitedVA + addr.V(v/8))
		e.compute(1) // path-count arithmetic
		if t.visited.add(v) {
			e.store(b.visitedVA + addr.V(v/8))
			e.store(b.propAAddr(v)) // sigma[v] += sigma[u]
			t.push(e, v)
		}
	}
}

// ---------------------------------------------------------------------------
// SP: single-source shortest path, delta-stepping flavour: a worklist of
// relaxations with hash-derived improvement decisions.

type sssp struct {
	bfs
}

// NewSP returns the GraphBIG Shortest Path workload.
func NewSP() Workload { return &sssp{bfs{graphData: graphData{local: 20}}} }

func (s *sssp) Name() string { return "sp" }

type spThread struct {
	frontier
	round uint64
}

func (s *sssp) Thread(core int, seed uint64) Generator {
	t := &spThread{frontier: s.newFrontier(core, seed)}
	return newThread(t.step)
}

func (t *spThread) step(e *emitter) {
	b := t.b
	if t.exhausted() {
		t.round++
		src := t.restart(e)
		e.store(b.labelAddr(src)) // dist[src] = 0
		return
	}
	u := t.pop()
	e.load(t.qAddr())
	b.emitRow(e, u)
	e.load(b.labelAddr(u)) // dist[u]
	for k, d := uint64(0), b.degree(u); k < d; k++ {
		e.load(b.edgeAddr(u, k)) // edge + weight
		v := b.neighbor(u, k)
		e.load(b.labelAddr(v)) // dist[v]
		e.compute(1)
		// Improvement probability decays as relaxation converges.
		h := xrand.Hash64(b.seed ^ (u*131 + v + t.round))
		if h%100 < 30/(1+t.round%8) {
			e.store(b.labelAddr(v))
			t.push(e, v)
		}
	}
}

// String helps debugging.
func (g *graphData) String() string {
	return fmt.Sprintf("graph{n=%d, maxDeg=%d}", g.n, g.maxDeg)
}
