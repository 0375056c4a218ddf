package trace

import (
	"bytes"
	"compress/gzip"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the version-2 golden capture fixture")

// fixtureStreams is the capture pinned by testdata/golden.ndpt, a
// frozen version-1 file: two streams exercising every op kind, backward
// address deltas, and a compute-only tail.
func fixtureStreams() [][]Op {
	return [][]Op{
		{
			{Kind: Load, Addr: 0x8000000000},
			{Kind: Compute, Cycles: 3},
			{Kind: Store, Addr: 0x8000000040},
			{Kind: Load, Addr: 0x8000000000}, // negative delta
			{Kind: Store, Addr: 0x80000fffc0},
		},
		{
			{Kind: Compute, Cycles: 1},
			{Kind: Load, Addr: 0x8000001000},
			{Kind: Compute, Cycles: 250},
		},
	}
}

// encode builds a binary capture from streams.
func encode(t testing.TB, name string, seed uint64, streams [][]Op) []byte {
	t.Helper()
	w := NewWriter(name, seed, len(streams))
	for i, s := range streams {
		for _, op := range s {
			w.Append(i, op)
		}
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeCSV renders one stream through CSVWriter.
func encodeCSV(t testing.TB, ops []Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewCSVWriter(&buf)
	for _, op := range ops {
		if err := c.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	in := fixtureStreams()
	b := encode(t, "fixture", 7, in)
	h, out, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != VersionPC || h.Name != "fixture" || h.Seed != 7 {
		t.Errorf("header = v%d %q/%d, want v%d fixture/7", h.Version, h.Name, h.Seed, VersionPC)
	}
	if h.Base != 0x8000000000 {
		t.Errorf("base = %#x, want 0x8000000000", h.Base)
	}
	if want := uint64(0x80000fffc0-0x8000000000) + lineBytes; h.Footprint != want {
		t.Errorf("footprint = %d, want %d", h.Footprint, want)
	}
	if !reflect.DeepEqual(h.Ops, []uint64{5, 3}) {
		t.Errorf("per-stream ops = %v, want [5 3]", h.Ops)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("decoded streams differ:\n got %v\nwant %v", out, in)
	}
	if err := h.Check(out); err != nil {
		t.Errorf("Check rejected a faithful decode: %v", err)
	}
}

func TestHeaderOnlyDecode(t *testing.T) {
	b := encode(t, "hdr", 1, fixtureStreams())
	h, err := DecodeHeader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if h.Streams() != 2 || h.TotalOps() != 8 {
		t.Errorf("header = %d streams / %d ops, want 2 / 8", h.Streams(), h.TotalOps())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ops := fixtureStreams()[0]
	h, streams, err := DecodeCSV(bytes.NewReader(encodeCSV(t, ops)))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || !reflect.DeepEqual(streams[0], ops) {
		t.Errorf("CSV round trip: got %v, want %v", streams, [][]Op{ops})
	}
	if h.Version != VersionPC || h.Base != 0x8000000000 || h.Ops[0] != 5 {
		t.Errorf("derived header = %+v", h)
	}
}

// TestLegacyCSVStillReads pins the read side of the two-column CSV, which
// no writer emits any more: it decodes with Version 1 and every PC zero.
func TestLegacyCSVStillReads(t *testing.T) {
	text := CSVHeader + "\nL,0x8000000000\nC,3\nS,0x8000000040\n"
	h, streams, err := DecodeCSV(strings.NewReader(text))
	if err != nil {
		t.Fatalf("two-column CSV unreadable: %v", err)
	}
	want := [][]Op{{
		{Kind: Load, Addr: 0x8000000000},
		{Kind: Compute, Cycles: 3},
		{Kind: Store, Addr: 0x8000000040},
	}}
	if !reflect.DeepEqual(streams, want) {
		t.Errorf("two-column CSV decoded to %v, want %v", streams, want)
	}
	if h.Version != Version || h.Base != 0x8000000000 || h.Footprint != 0x40+lineBytes {
		t.Errorf("derived header = %+v", h)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := encode(t, "err", 1, fixtureStreams())
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not gzip", []byte("op,addr-ish garbage"), "not a gzip-framed"},
		{"truncated frame", good[:len(good)/2], ""},
		{"empty", nil, "not a gzip-framed"},
	}
	for _, c := range cases {
		if _, _, err := Decode(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", c.name)
		} else if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// regzip frames a hand-built payload so header-level corruption gets
// past the gzip layer with a valid checksum.
func regzip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorruptHeaderErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"bad magic", []byte("XXXX\x01"), "bad magic"},
		{"future version", []byte(Magic + "\x63"), "unsupported format version"},
		{"truncated header", []byte(Magic), "truncated"},
		{"absurd stream count", append([]byte(Magic+"\x01\x00\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f), "corrupt header"},
	}
	for _, c := range cases {
		_, err := DecodeHeader(bytes.NewReader(regzip(t, c.payload)))
		if err == nil {
			t.Errorf("%s: DecodeHeader accepted corrupt input", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"wrong header", "kind,address\n"},
		{"malformed row", CSVHeader + "\nL\n"},
		{"bad address", CSVHeader + "\nL,zzz\n"},
		{"bad cycles", CSVHeader + "\nC,-4\n"},
		{"unknown op", CSVHeader + "\nX,0x10\n"},
	}
	for _, c := range cases {
		if _, _, err := DecodeCSV(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: DecodeCSV accepted corrupt input", c.name)
		}
	}
}

func TestCheckCatchesTamperedHeader(t *testing.T) {
	h := Header{Base: 0x1000, Footprint: lineBytes, Ops: []uint64{1}}
	streams := [][]Op{{{Kind: Load, Addr: 0x1000}}}
	if err := h.Check(streams); err != nil {
		t.Fatalf("consistent header rejected: %v", err)
	}
	bad := h
	bad.Footprint = 4096
	if err := bad.Check(streams); err == nil {
		t.Error("Check accepted a tampered footprint")
	}
	bad = h
	bad.Ops = []uint64{2}
	if err := bad.Check(streams); err == nil {
		t.Error("Check accepted a tampered op count")
	}
}

// TestGoldenFixture pins reader compatibility: the committed version-1
// .ndpt file must keep decoding to the same streams, whatever the writer
// evolves into. No writer emits version 1, so the file is frozen: -update
// leaves it alone.
func TestGoldenFixture(t *testing.T) {
	h, streams, err := ReadFile(filepath.Join("testdata", "golden.ndpt"))
	if err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}
	if h.Name != "golden" || h.Seed != 42 {
		t.Errorf("golden header identity = %q/%d", h.Name, h.Seed)
	}
	if !reflect.DeepEqual(streams, fixtureStreams()) {
		t.Errorf("golden decode drifted:\n got %v\nwant %v", streams, fixtureStreams())
	}
}

func TestSniffAndReadFile(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.ndpt")
	if err := os.WriteFile(bin, encode(t, "s", 1, fixtureStreams()), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, encodeCSV(t, fixtureStreams()[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, csv} {
		h, err := Sniff(path)
		if err != nil {
			t.Fatalf("Sniff(%s): %v", path, err)
		}
		if h.Base != 0x8000000000 {
			t.Errorf("Sniff(%s): base %#x", path, h.Base)
		}
		if _, streams, err := ReadFile(path); err != nil || len(streams) == 0 {
			t.Errorf("ReadFile(%s): %v", path, err)
		}
	}
	if _, err := Sniff(filepath.Join(dir, "missing.ndpt")); err == nil {
		t.Error("Sniff accepted a missing file")
	}
}
