package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"ndpage/internal/xrand"
)

// simSeed is sim.Config's default seed. sim.New seeds a workload's Init
// with it and core c's thread with threadSeed(c).
const simSeed = 42

func threadSeed(c int) uint64 { return simSeed*1_000_003 + uint64(c) }

// streamDigest drives threads generators of the named workload, built
// the way sim.New builds them, and returns an FNV-1a digest of every
// op: kind, address, PC and compute cycles.
func streamDigest(name string, footprint uint64, threads, opsPerThread int) uint64 {
	w := MustLookup(name).New()
	w.Init(newFakeMem(), xrand.New(simSeed), footprint, threads)
	h := fnv.New64a()
	var buf [21]byte
	for c := 0; c < threads; c++ {
		g := w.Thread(c, threadSeed(c))
		var op Op
		for i := 0; i < opsPerThread; i++ {
			g.Next(&op)
			buf[0] = byte(op.Kind)
			binary.LittleEndian.PutUint64(buf[1:], uint64(op.Addr))
			binary.LittleEndian.PutUint64(buf[9:], op.PC)
			binary.LittleEndian.PutUint32(buf[17:], op.Cycles)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGraphStreamsGolden pins the traversal kernels' op streams to the
// values the dense per-thread bitmap produced, so the host-side visited
// set can change layout without moving one simulated number. Two sizes:
// the 4-core default footprint (11.5 GB, ~84M vertices) at the default
// 330k ops per core, and the minimum graph (65536 vertices, one set
// chunk) long enough that the chunk turns dense and bfs and bc each
// exhaust a frontier and reset the set (checked below).
func TestGraphStreamsGolden(t *testing.T) {
	cases := []struct {
		name      string
		footprint uint64
		ops       int
		want      uint64
	}{
		{"bfs", 23 << 29, 330_000, 0xae2706312b9d323e},
		{"bc", 23 << 29, 330_000, 0xf9b1871c2136833e},
		{"sp", 23 << 29, 330_000, 0x424405f3a666ddc7},
		{"bfs", 1 << 20, 2_000_000, 0xb83b7440644f6f80},
		{"bc", 1 << 20, 5_000_000, 0x1a94b4bd7a2b747e},
		{"sp", 1 << 20, 1_000_000, 0xff5da565e050daef},
	}
	for _, c := range cases {
		if got := streamDigest(c.name, c.footprint, 4, c.ops); got != c.want {
			t.Errorf("%s at %d B, %d ops/thread: digest %#x, want %#x", c.name, c.footprint, c.ops, got, c.want)
		}
	}

	// On the minimum graph, core 0's bfs and bc threads must turn the
	// set's one chunk dense and start a second traversal within their
	// op counts.
	w := NewBC().(*bc)
	w.Init(newFakeMem(), xrand.New(simSeed), 1<<20, 4)
	bt := &bfsThread{frontier: w.newFrontier(0, threadSeed(0)), visited: newVertexSet(w.n)}
	ct := &bcThread{bfsThread: bfsThread{frontier: w.newFrontier(0, threadSeed(0)), visited: newVertexSet(w.n)}, backPos: -1}
	for _, c := range []struct {
		name   string
		ops    int
		th     *bfsThread
		step   func(*emitter)
		starts func() bool // the next step starts a traversal
	}{
		{"bfs", 2_000_000, bt, bt.step, bt.exhausted},
		{"bc", 5_000_000, &ct.bfsThread, ct.step, func() bool { return ct.exhausted() && len(ct.order) == 0 }},
	} {
		var e emitter
		traversals := 0
		for ops := 0; ops < c.ops; ops += len(e.buf) {
			if c.starts() {
				traversals++
			}
			e.reset()
			c.step(&e)
		}
		chunks := c.th.visited.chunks
		if len(chunks) != 1 || chunks[0].bits == nil || traversals < 2 {
			t.Errorf("%s on %d vertices: %d chunks, dense %v, %d traversals; want 1, true, >= 2",
				c.name, w.n, len(chunks), chunks[0].bits != nil, traversals)
		}
	}
}

// TestGraphThreadAllocs bounds the host memory a traversal thread
// allocates: at the 4-core default footprint (~84M vertices), building
// 4 bfs or bc threads and drawing the default 330k ops from each must
// allocate at most 8 MB in total. A dense per-thread visited bitmap
// alone is 10.5 MB per thread.
func TestGraphThreadAllocs(t *testing.T) {
	const threads, ops, budget = 4, 330_000, 8 << 20
	for _, name := range []string{"bfs", "bc"} {
		w := MustLookup(name).New()
		w.Init(newFakeMem(), xrand.New(simSeed), 23<<29, threads)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for c := 0; c < threads; c++ {
			g := w.Thread(c, threadSeed(c))
			var op Op
			for i := 0; i < ops; i++ {
				g.Next(&op)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s: %d threads x %d ops allocated %.1f MB, budget %d MB",
				name, threads, ops, float64(got)/(1<<20), budget>>20)
		} else {
			t.Logf("%s: %.2f MB allocated", name, float64(got)/(1<<20))
		}
	}
}

// setMembers returns s's members and checks its layout: lists strictly
// ascending and within setListMax (capacity too, so a chunk never holds
// more than its bitmap would), and dense chunks without a list.
func setMembers(t testing.TB, s *vertexSet) map[uint64]bool {
	t.Helper()
	got := map[uint64]bool{}
	for ci, c := range s.chunks {
		base := uint64(ci) << 16
		if c.bits != nil {
			if c.list != nil {
				t.Fatalf("chunk %d keeps a list beside its bitmap", ci)
			}
			for w, word := range c.bits {
				for b := 0; b < 64; b++ {
					if word&(1<<b) != 0 {
						got[base+uint64(w*64+b)] = true
					}
				}
			}
			continue
		}
		if len(c.list) > setListMax || cap(c.list) > setListMax {
			t.Fatalf("chunk %d list len %d cap %d exceeds %d", ci, len(c.list), cap(c.list), setListMax)
		}
		for i, lo := range c.list {
			if i > 0 && c.list[i-1] >= lo {
				t.Fatalf("chunk %d list not strictly ascending at %d: %d, %d", ci, i, c.list[i-1], lo)
			}
			got[base+uint64(lo)] = true
		}
	}
	return got
}

// setOracle drives a vertexSet and a Go map side by side.
type setOracle struct {
	t    testing.TB
	n    uint64
	set  vertexSet
	want map[uint64]bool
}

func newSetOracle(t testing.TB, n uint64) *setOracle {
	return &setOracle{t: t, n: n, set: newVertexSet(n), want: map[uint64]bool{}}
}

func (o *setOracle) add(v uint64) {
	o.t.Helper()
	absent := !o.want[v]
	if got := o.set.add(v); got != absent {
		o.t.Fatalf("add(%d) = %v, want %v", v, got, absent)
	}
	o.want[v] = true
}

func (o *setOracle) reset() {
	o.set.reset()
	o.want = map[uint64]bool{}
}

func (o *setOracle) check() {
	o.t.Helper()
	got := setMembers(o.t, &o.set)
	if len(got) != len(o.want) {
		o.t.Fatalf("set holds %d members, map %d", len(got), len(o.want))
	}
	for v := range o.want {
		if !got[v] {
			o.t.Fatalf("set lost member %d", v)
		}
	}
}

func TestVertexSetMatchesMap(t *testing.T) {
	const n = 3<<16 + 12345 // the last chunk is partial
	o := newSetOracle(t, n)
	if len(o.set.chunks) != 4 {
		t.Fatalf("%d vertices in %d chunks, want 4", n, len(o.set.chunks))
	}
	// Chunk edges and the last id, twice each.
	for _, v := range []uint64{0, 1<<16 - 1, 1 << 16, 2<<16 - 1, 2 << 16, 3 << 16, n - 1, 0, n - 1, 1 << 16} {
		o.add(v)
	}
	o.check()

	// Chunk 1 in shuffled order: a list through 4096 members, a bitmap
	// from the 4097th on.
	rng := xrand.New(7)
	perm := make([]uint64, 1<<16)
	for i := range perm {
		perm[i] = 1<<16 + uint64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Uint64n(uint64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var fresh []uint64 // chunk-1 ids not yet added
	for _, v := range perm {
		if !o.want[v] {
			fresh = append(fresh, v)
		}
	}
	have := 2 // 1<<16 and 2<<16-1 are in already
	for _, v := range fresh[:setListMax-1-have] {
		o.add(v)
	}
	c := &o.set.chunks[1]
	if c.bits != nil || len(c.list) != setListMax-1 {
		t.Fatalf("at %d members: bits %v, list %d", setListMax-1, c.bits != nil, len(c.list))
	}
	o.add(fresh[setListMax-1-have])
	if c.bits != nil || len(c.list) != setListMax {
		t.Fatalf("at %d members: bits %v, list %d", setListMax, c.bits != nil, len(c.list))
	}
	o.check()
	o.add(fresh[setListMax-have])
	if c.bits == nil || c.list != nil {
		t.Fatalf("at %d members: bits %v, list %d", setListMax+1, c.bits != nil, len(c.list))
	}
	o.check()
	for _, v := range perm[:20000] { // present and absent, in the bitmap
		o.add(v)
	}
	o.check()

	// Random ids over all chunks, with duplicates.
	for i := 0; i < 30000; i++ {
		o.add(rng.Uint64n(n))
	}
	o.check()

	// Reset empties every chunk; a dense chunk keeps its (cleared)
	// bitmap and a sparse one its capacity.
	o.reset()
	o.check()
	if c.bits == nil {
		t.Fatal("reset dropped a dense chunk's bitmap")
	}
	if last := o.set.chunks[3]; last.bits != nil || cap(last.list) == 0 {
		t.Fatal("reset dropped a sparse chunk's list capacity")
	}
	for _, v := range []uint64{0, 1 << 16, n - 1, 0, 1<<16 + 5, 3<<16 + 1} {
		o.add(v)
	}
	for i := 0; i < 10000; i++ {
		o.add(rng.Uint64n(n))
	}
	o.check()
}

// FuzzVertexSet decodes the input into adds, runs of adds and resets
// over four chunks (the last one partial) and checks the set against a
// Go map after every add and at the end.
func FuzzVertexSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 7, 0, 0, 0})
	var dense []byte // nine adjacent 512-id runs turn chunk 1 dense, then reset
	for k := byte(0); k < 9; k++ {
		dense = append(dense, 5, 1, 2*k, 0)
	}
	f.Add(append(dense, 6, 0, 0, 0, 5, 1, 0, 0))
	f.Add([]byte{5, 2, 255, 255, 5, 2, 0, 0, 2, 3, 16, 0, 6, 0, 0, 0, 7, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 3<<16 + 12345
		o := newSetOracle(t, n)
		for ; len(data) >= 4; data = data[4:] {
			v := (uint64(data[1])<<16 | uint64(data[2])<<8 | uint64(data[3])) % n
			switch data[0] % 8 {
			case 5: // a strided run, enough to turn a chunk dense
				for i, s := uint64(0), 1+uint64(data[0]>>3); i < 512; i++ {
					o.add((v + i*s) % n)
				}
			case 6:
				o.reset()
			case 7: // the top ids
				o.add(n - 1 - v%64)
			default:
				o.add(v)
			}
		}
		o.check()
	})
}

// BenchmarkVertexSetAdd replays bfs-shaped probes (neighbour ids of
// random vertices on the 4-core default graph, duplicates included)
// into a reset set until it holds fill members: ~62k is one core's fill
// at the default 330k-op budget, ~608k at a 10x budget.
func BenchmarkVertexSetAdd(b *testing.B) {
	w := NewBFS().(*bfs)
	w.Init(newFakeMem(), xrand.New(simSeed), 23<<29, 4)
	for _, fill := range []int{62_000, 608_000} {
		rng := xrand.New(1)
		seen := map[uint64]bool{}
		var probes []uint64
		for len(seen) < fill {
			v := w.neighbor(rng.Uint64n(w.n), rng.Uint64n(w.maxDeg))
			probes = append(probes, v)
			seen[v] = true
		}
		b.Run(fmt.Sprintf("fill=%dk", fill/1000), func(b *testing.B) {
			b.ReportAllocs()
			s := newVertexSet(w.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.reset()
				for _, v := range probes {
					s.add(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/add")
		})
	}
}
