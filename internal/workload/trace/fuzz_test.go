package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenCaptures returns the committed .ndpt fixtures, the fuzz
// targets' seed corpus.
func goldenCaptures(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden*.ndpt"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden captures (%v)", err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// gunzip returns the deframed payload of a gzip-framed capture.
func gunzip(f *testing.F, b []byte) []byte {
	f.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// gzipFrame wraps payload in a fresh gzip frame.
func gzipFrame(t *testing.T, payload []byte) []byte {
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

// FuzzDecode feeds arbitrary bytes to the .ndpt decoder, both as a
// whole file and as the payload inside a valid gzip frame (so
// mutations reach the varint decoder rather than dying in the
// checksum). Decode must return an error or streams that re-encode (as
// version 2, whatever version they were read at) and decode back to
// themselves with a consistent header. It must never panic.
func FuzzDecode(f *testing.F) {
	for _, b := range goldenCaptures(f) {
		f.Add(b)
		f.Add(gunzip(f, b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeRoundTrip(t, data)
		checkDecodeRoundTrip(t, gzipFrame(t, data))
	})
}

func checkDecodeRoundTrip(t *testing.T, data []byte) {
	h, streams, err := Decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	w := NewWriter(h.Name, h.Seed, len(streams))
	for i, s := range streams {
		for _, op := range s {
			w.Append(i, op)
		}
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h2, back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("re-encoded capture does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, streams) {
		t.Fatalf("streams changed across re-encoding:\n got %v\nwant %v", back, streams)
	}
	if h2.Version != VersionPC || h2.Name != h.Name || h2.Seed != h.Seed || !reflect.DeepEqual(h2.Ops, h.Ops) {
		t.Fatalf("header changed across re-encoding: %+v, want %+v at version %d", h2, h, VersionPC)
	}
	if err := h2.Check(back); err != nil {
		t.Fatalf("re-encoded header inconsistent: %v", err)
	}
}

// FuzzCSV feeds arbitrary text to the CSV decoder. DecodeCSV must
// return an error or one stream that re-encodes (always with the pc
// column) and decodes back to itself under the same derived header, at
// VersionPC. It must never panic.
func FuzzCSV(f *testing.F) {
	for _, b := range goldenCaptures(f) {
		_, streams, err := Decode(bytes.NewReader(b))
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range streams {
			f.Add(encodeCSV(f, s))
		}
	}
	f.Add([]byte(CSVHeaderPC + "\n"))
	f.Add([]byte(CSVHeader + "\nL,0x10\nC,4\nS,0x20\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, streams, err := DecodeCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(streams) != 1 {
			t.Fatalf("CSV decoded to %d streams, want 1", len(streams))
		}
		text := encodeCSV(t, streams[0])
		h2, back, err := DecodeCSV(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("re-encoded CSV does not decode: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(back, streams) {
			t.Fatalf("ops changed across re-encoding:\n got %v\nwant %v", back, streams)
		}
		want := h
		want.Version = VersionPC
		if !reflect.DeepEqual(h2, want) {
			t.Fatalf("header changed across re-encoding: %+v, want %+v", h2, want)
		}
	})
}
