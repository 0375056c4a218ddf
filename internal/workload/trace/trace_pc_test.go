package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureStreamsPC is the v2 capture pinned by testdata/golden_pc.ndpt:
// the v1 fixture's op shapes plus a PC stream exercising repeats (a hot
// loop), backward PC deltas, and a zero PC ("no PC recorded").
func fixtureStreamsPC() [][]Op {
	return [][]Op{
		{
			{Kind: Load, Addr: 0x8000000000, PC: 0x400010},
			{Kind: Compute, Cycles: 3},
			{Kind: Store, Addr: 0x8000000040, PC: 0x400010}, // same PC: zero delta
			{Kind: Load, Addr: 0x8000000000, PC: 0x400004},  // backward PC delta
			{Kind: Store, Addr: 0x80000fffc0, PC: 0x7fff00000000},
		},
		{
			{Kind: Compute, Cycles: 1},
			{Kind: Load, Addr: 0x8000001000, PC: 0x401000},
			{Kind: Load, Addr: 0x8000001040}, // PC 0: no PC recorded
		},
	}
}

func TestPCBinaryRoundTrip(t *testing.T) {
	in := fixtureStreamsPC()
	b := encode(t, "pcfix", 9, in)
	h, out, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != VersionPC {
		t.Errorf("version = %d, want %d", h.Version, VersionPC)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("decoded streams differ:\n got %v\nwant %v", out, in)
	}
	if err := h.Check(out); err != nil {
		t.Errorf("Check rejected a faithful decode: %v", err)
	}
}

// TestV1GoldenStillReads pins the read side: the committed version-1
// fixture decodes under the v2-aware reader with Version 1 and no PCs.
func TestV1GoldenStillReads(t *testing.T) {
	h, streams, err := ReadFile(filepath.Join("testdata", "golden.ndpt"))
	if err != nil {
		t.Fatalf("v1 golden unreadable by the v2-aware decoder: %v", err)
	}
	if h.Version != Version {
		t.Errorf("v1 golden reports version %d, want %d", h.Version, Version)
	}
	for i, s := range streams {
		for j, op := range s {
			if op.PC != 0 {
				t.Fatalf("stream %d op %d: v1 decode produced PC %#x, want 0", i, j, op.PC)
			}
		}
	}
}

// TestGoldenPCFixture pins v2 reader compatibility the same way
// TestGoldenFixture pins v1: the committed capture must keep decoding
// to the same streams. Regenerate (after a deliberate format change,
// with a version bump) via:
//
//	go test ./internal/workload/trace -run Golden -update
func TestGoldenPCFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden_pc.ndpt")
	if *update {
		if err := os.WriteFile(path, encode(t, "golden-pc", 42, fixtureStreamsPC()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h, streams, err := ReadFile(path)
	if err != nil {
		t.Fatalf("v2 golden fixture unreadable: %v (regenerate with -update after a deliberate format change)", err)
	}
	if h.Version != VersionPC || h.Name != "golden-pc" || h.Seed != 42 {
		t.Errorf("golden header = v%d %q/%d, want v%d golden-pc/42", h.Version, h.Name, h.Seed, VersionPC)
	}
	if !reflect.DeepEqual(streams, fixtureStreamsPC()) {
		t.Errorf("v2 golden decode drifted:\n got %v\nwant %v", streams, fixtureStreamsPC())
	}
}

// TestCorruptPCStream hits the v2-specific error path: a capture whose
// payload ends mid-op, after the address delta but before the PC delta
// the version-2 header promises.
func TestCorruptPCStream(t *testing.T) {
	good := encode(t, "corrupt", 1, [][]Op{{
		{Kind: Load, Addr: 0x8000000000, PC: 0x400000},
		{Kind: Load, Addr: 0x8000000040, PC: 0x400004}, // 1-byte PC delta, last on the wire
	}})
	gz, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the final byte — the second op's PC delta — and reframe with
	// a valid checksum so only the trace layer can object.
	truncated := regzip(t, payload[:len(payload)-1])
	_, _, err = Decode(bytes.NewReader(truncated))
	if err == nil {
		t.Fatal("Decode accepted a capture with a truncated PC stream")
	}
	if !strings.Contains(err.Error(), "pc delta") {
		t.Errorf("error %q does not mention the pc delta", err)
	}
}

// TestCSVPCRoundTrip covers the three-column CSV form: CSVWriter writes
// the pc column, and DecodeCSV brings the PCs back.
func TestCSVPCRoundTrip(t *testing.T) {
	ops := fixtureStreamsPC()[0]
	text := encodeCSV(t, ops)
	if !bytes.HasPrefix(text, []byte(CSVHeaderPC+"\n")) {
		t.Fatalf("CSV capture does not start with the pc header:\n%s", text)
	}
	h, streams, err := DecodeCSV(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != VersionPC {
		t.Errorf("derived version = %d, want %d", h.Version, VersionPC)
	}
	if len(streams) != 1 || !reflect.DeepEqual(streams[0], ops) {
		t.Errorf("CSV PC round trip: got %v, want %v", streams, [][]Op{ops})
	}
}

func TestCSVPCErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"bad pc", CSVHeaderPC + "\nL,0x10,zzz\n"},
		{"missing pc column", CSVHeaderPC + "\nL,0x10\n"},
		{"pc on compute", CSVHeaderPC + "\nC,4,0x10\n"},
	}
	for _, c := range cases {
		if _, _, err := DecodeCSV(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: DecodeCSV accepted corrupt input", c.name)
		}
	}
}
