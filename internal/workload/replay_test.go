package workload

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpage/internal/addr"
	"ndpage/internal/workload/trace"
	"ndpage/internal/xrand"
)

// bumpMem is a fixed-base bump allocator implementing Mem.
type bumpMem struct{ brk addr.V }

func (m *bumpMem) Alloc(size uint64, name string) addr.V {
	base := m.brk
	m.brk += addr.V(addr.AlignUp(size, addr.PageSize))
	return base
}
func (m *bumpMem) AllocLazy(size uint64, name string) addr.V { return m.Alloc(size, name) }

// writeCapture encodes streams into a temp .ndpt file.
func writeCapture(t *testing.T, streams [][]trace.Op) string {
	t.Helper()
	w := trace.NewWriter("test", 1, len(streams))
	for i, s := range streams {
		for _, op := range s {
			w.Append(i, op)
		}
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.ndpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func pull(g Generator, n int) []Op {
	out := make([]Op, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

func TestReplayRebaseAndLoop(t *testing.T) {
	const base = 0x8000000000
	path := writeCapture(t, [][]trace.Op{{
		{Kind: trace.Load, Addr: base},
		{Kind: trace.Compute, Cycles: 5},
		{Kind: trace.Store, Addr: base + 0x1000},
	}})
	spec, err := Lookup(TracePrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.New()
	mem := &bumpMem{brk: 1 << 30}
	w.Init(mem, xrand.New(1), 0, 1)

	ops := pull(w.Thread(0, 99), 7)
	want := []Op{
		{Kind: Load, Addr: 1 << 30},
		{Kind: Compute, Cycles: 5},
		{Kind: Store, Addr: 1<<30 + 0x1000},
	}
	for i, wop := range append(append(append([]Op{}, want...), want...), want[0]) {
		if ops[i] != wop {
			t.Fatalf("op %d = %+v, want %+v (rebased, looping)", i, ops[i], wop)
		}
	}
}

func TestReplayDemuxMatchesThreadSemantics(t *testing.T) {
	s0 := []trace.Op{{Kind: trace.Load, Addr: 0x1000}}
	s1 := []trace.Op{{Kind: trace.Store, Addr: 0x2000}}
	path := writeCapture(t, [][]trace.Op{s0, s1})
	spec := MustLookup(TracePrefix + path)
	w := spec.New()
	w.Init(&bumpMem{brk: 0x1000}, xrand.New(1), 0, 4)

	// Cores beyond the capture's stream count wrap round-robin, and two
	// cores sharing a stream get independent generators (same sequence).
	for core, wantKind := range map[int]OpKind{0: Load, 1: Store, 2: Load, 3: Store} {
		var op Op
		w.Thread(core, uint64(core)).Next(&op)
		if op.Kind != wantKind {
			t.Errorf("core %d got kind %d, want %d", core, op.Kind, wantKind)
		}
	}
	a := pull(w.Thread(0, 1), 3)
	b := pull(w.Thread(2, 7), 3)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cores sharing stream 0 diverge at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReplayEmptyStreamDegeneratesToCompute(t *testing.T) {
	path := writeCapture(t, [][]trace.Op{{}})
	w := MustLookup(TracePrefix + path).New()
	w.Init(&bumpMem{}, xrand.New(1), 0, 1)
	for _, op := range pull(w.Thread(0, 1), 3) {
		if op.Kind != Compute || op.Cycles != 1 {
			t.Fatalf("empty stream emitted %+v, want compute(1)", op)
		}
	}
}

func TestTraceLookupErrors(t *testing.T) {
	if _, err := Lookup("trace:"); err == nil {
		t.Error("empty trace path accepted")
	}
	if _, err := Lookup("trace:/nonexistent/file.ndpt"); err == nil {
		t.Error("missing capture accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.ndpt")
	if err := os.WriteFile(bad, []byte("not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(TracePrefix + bad); err == nil {
		t.Error("garbage capture accepted")
	}
}

// TestTraceLookupRejectsCorruptPayload: a syntactically valid header
// that lies about its payload (huge op count, truncated streams) must
// fail cleanly at Lookup — not panic in Init, and not attempt a
// header-sized allocation.
func TestTraceLookupRejectsCorruptPayload(t *testing.T) {
	buf := []byte(trace.Magic)
	buf = binary.AppendUvarint(buf, trace.Version)
	buf = binary.AppendUvarint(buf, 0)     // name
	buf = binary.AppendUvarint(buf, 0)     // seed
	buf = binary.AppendUvarint(buf, 0)     // base
	buf = binary.AppendUvarint(buf, 0)     // footprint
	buf = binary.AppendUvarint(buf, 1)     // one stream...
	buf = binary.AppendUvarint(buf, 1<<62) // ...claiming 2^62 ops, no payload
	var gzbuf bytes.Buffer
	gz := gzip.NewWriter(&gzbuf)
	if _, err := gz.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lying.ndpt")
	if err := os.WriteFile(path, gzbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(TracePrefix + path); err == nil {
		t.Fatal("Lookup accepted a capture whose payload contradicts its header")
	}
}

// TestCaptureDecodeShared: two instances replaying one aged capture
// share the decoded streams (one in-memory copy per content version).
func TestCaptureDecodeShared(t *testing.T) {
	path := writeCapture(t, [][]trace.Op{{{Kind: trace.Load, Addr: 0x1000}}})
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	mk := func() *replay {
		w := MustLookup(TracePrefix + path).New().(*replay)
		w.Init(&bumpMem{brk: 0x1000}, xrand.New(1), 0, 1)
		return w
	}
	a, b := mk(), mk()
	if &a.streams[0][0] != &b.streams[0][0] {
		t.Error("two replays of one aged capture hold separate decoded copies")
	}
}

// TestFileMemosConcurrent: sweep workers key and load one aged capture
// from several goroutines at once; every caller sees the same digest and
// the same shared decode.
func TestFileMemosConcurrent(t *testing.T) {
	path := writeCapture(t, [][]trace.Op{{{Kind: trace.Load, Addr: 0x1000}}})
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	wantID := Identity(TracePrefix + path)
	_, want, err := loadCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id := Identity(TracePrefix + path); id != wantID {
				t.Errorf("identity %q, want %q", id, wantID)
			}
			_, got, err := loadCapture(path)
			if err != nil || &got[0][0] != &want[0][0] {
				t.Errorf("concurrent load did not share the memoized decode (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

func TestRegisterValidation(t *testing.T) {
	mk := func() Workload { return NewRND() }
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty name", Spec{New: mk}},
		{"uppercase", Spec{Name: "Chase", New: mk}},
		{"colon", Spec{Name: "trace:x", New: mk}},
		{"leading dash", Spec{Name: "-x", New: mk}},
		{"builtin collision", Spec{Name: "bfs", New: mk}},
		{"nil constructor", Spec{Name: "nilctor"}},
	}
	for _, c := range cases {
		if err := Register(c.spec); err == nil {
			t.Errorf("%s: Register accepted %+v", c.name, c.spec)
		}
	}
}

func TestRegisterLookupAndIdentity(t *testing.T) {
	spec := Spec{
		Name:        "reg-test.kernel",
		Suite:       "custom",
		Description: "registry test kernel",
		Params:      "n=64",
		New:         func() Workload { return NewRND() },
	}
	if err := Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := Register(spec); err == nil {
		t.Error("duplicate registration accepted")
	}
	got, err := Lookup("reg-test.kernel")
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "custom" || got.Params != "n=64" {
		t.Errorf("Lookup returned %+v", got)
	}
	found := false
	for _, n := range Registered() {
		if n == "reg-test.kernel" {
			found = true
		}
	}
	if !found {
		t.Error("Registered() misses the new workload")
	}
	// Registered names stay out of the paper's evaluation set.
	for _, n := range Names() {
		if n == "reg-test.kernel" {
			t.Error("Names() leaked a registered workload into the Table II set")
		}
	}

	if id := Identity("bfs"); id != "" {
		t.Errorf("builtin identity = %q, want empty (key stability)", id)
	}
	id := Identity("reg-test.kernel")
	if !strings.Contains(id, "reg-test.kernel") || !strings.Contains(id, "n=64") {
		t.Errorf("registered identity %q misses name or params", id)
	}
}

func TestTraceIdentityTracksContent(t *testing.T) {
	path := writeCapture(t, [][]trace.Op{{{Kind: trace.Load, Addr: 0x1000}}})
	id1 := Identity(TracePrefix + path)
	if id1 == "" || strings.Contains(id1, "unreadable") {
		t.Fatalf("identity of a readable capture = %q", id1)
	}
	if id2 := Identity(TracePrefix + path); id2 != id1 {
		t.Errorf("identity not stable: %q vs %q", id1, id2)
	}
	// Rewriting the capture must change the identity (cache soundness).
	w := trace.NewWriter("test", 2, 1)
	w.Append(0, trace.Op{Kind: trace.Store, Addr: 0x2000})
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if id3 := Identity(TracePrefix + path); id3 == id1 {
		t.Error("identity unchanged after the capture's content changed")
	}
	if id := Identity("trace:/nonexistent/file.ndpt"); !strings.Contains(id, "unreadable") {
		t.Errorf("identity of a missing capture = %q, want unreadable placeholder", id)
	}
}
