package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ndpage"
	"ndpage/internal/serve"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// tiny returns arguments for a fast simulation.
func tiny(extra ...string) []string {
	args := []string{
		"-mech", "NDPage", "-workload", "rnd", "-cores", "1",
		"-footprint", "33554432", "-memory", "268435456",
		"-warmup", "200", "-instructions", "1000",
	}
	return append(args, extra...)
}

func TestRunTextSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"system=ndp mechanism=NDPage", "instructions", "TLB miss rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-json"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"Instructions\"") {
		t.Errorf("JSON output missing Instructions field:\n%.200s", out.String())
	}
}

// TestProfileFlagsWriteFiles: -cpuprofile and -memprofile must create
// non-empty pprof files covering the simulation.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run(tiny("-cpuprofile", cpu, "-memprofile", mem), &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not created: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestMemProfileHoldsMachine: -memprofile is written while the machine
// is live, so the in-use heap it records covers at least the ECH
// table's host metadata. Every allocation is profiled, so the figure
// is exact rather than a sampled estimate.
func TestMemProfileHoldsMachine(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	args := []string{
		"-mech", "ECH", "-workload", "rnd", "-cores", "1",
		"-footprint", "1073741824", "-memory", "2147483648",
		"-warmup", "200", "-instructions", "1000", "-memprofile", mem,
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(ndpage.Config{
		Mechanism: ndpage.ECH, Workload: "rnd", Cores: 1,
		FootprintBytes: 1 << 30, MemoryBytes: 2 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := m.Space().Table().MetadataBytes()
	if inuse := heapInuse(t, mem); inuse < int64(meta) {
		t.Errorf("heap profile holds %d in-use bytes, less than the ECH table's %d B of metadata", inuse, meta)
	}
}

// heapInuse returns the in-use bytes a gzipped pprof heap profile
// records: the sum of its samples' inuse_space values.
func heapInuse(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var (
		types   []uint64 // string-table index of each sample type's name
		samples [][]uint64
		strs    []string
	)
	protoFields(t, data, func(num int, v uint64, b []byte) {
		switch num {
		case 1: // sample_type
			protoFields(t, b, func(num int, v uint64, _ []byte) {
				if num == 1 {
					types = append(types, v)
				}
			})
		case 2: // sample
			var vals []uint64
			protoFields(t, b, func(num int, v uint64, b []byte) {
				if num != 2 {
					return
				}
				if b == nil {
					vals = append(vals, v)
				}
				for len(b) > 0 { // packed
					x, n := binary.Uvarint(b)
					vals, b = append(vals, x), b[n:]
				}
			})
			samples = append(samples, vals)
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	for i, name := range types {
		if strs[name] != "inuse_space" {
			continue
		}
		var total int64
		for _, vals := range samples {
			total += int64(vals[i])
		}
		return total
	}
	t.Fatal("heap profile has no inuse_space sample type")
	return 0
}

// protoFields calls f for each field of the protobuf message b: its
// number and either its varint value or its length-delimited bytes.
func protoFields(t *testing.T, b []byte, f func(num int, v uint64, b []byte)) {
	t.Helper()
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("malformed protobuf key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			f(int(key>>3), v, nil)
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			f(int(key>>3), 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 1:
			b = b[8:]
		case 5:
			b = b[4:]
		default:
			t.Fatalf("unsupported protobuf wire type %d", key&7)
		}
	}
}

// TestCacheDir: -cache <dir> persists the run; the repeat invocation
// serves the identical result from disk.
func TestCacheDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var first, second bytes.Buffer
	if err := run(tiny("-json", "-cache", dir), &first); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v, %v; want exactly 1", entries, err)
	}
	if err := run(tiny("-json", "-cache", dir), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("cached re-run produced different output")
	}
}

// TestCacheRemote: -cache http://... delegates the run to an ndpserve
// instance; the repeat invocation is a warm hit costing no second
// simulation.
func TestCacheRemote(t *testing.T) {
	srv, err := serve.New(serve.Options{Store: sweep.NewMemStore(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var first, second bytes.Buffer
	if err := run(tiny("-json", "-cache", ts.URL), &first); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-json", "-cache", ts.URL), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("remote-cached re-run produced different output")
	}
	if snap := srv.Snapshot(); snap.Simulations != 1 {
		t.Errorf("server simulations = %d, want 1 (second run warm)", snap.Simulations)
	}
}

// TestCacheBadURL: a malformed remote cache URL fails loudly.
func TestCacheBadURL(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-cache", "http://"), &out); err == nil {
		t.Error("bad cache URL accepted")
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "tpu"}, &out); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestHelpFlagIsCleanExit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
}

func TestBadFlagReportsOnce(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-no-such-flag"}, &out)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(err.Error(), "flag parsing failed") {
		t.Errorf("bad flag error = %v, want the already-reported marker", err)
	}
}
