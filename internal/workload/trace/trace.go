// Package trace defines the capture formats of the workload platform:
// the op streams ndptrace dumps and the "trace:<path>" replay workload
// consumes. Two formats share one in-memory model ([]Op per stream):
//
//   - CSV ("op,addr,pc" header; L/S/C rows, loads and stores carrying
//     their instruction PC) — single-stream, line-per-op, meant for
//     eyeballing and for feeding other tools.
//   - Binary .ndpt — gzip-framed, varint-delta encoded, multi-stream,
//     with a header carrying the stream count, address span, and
//     per-stream op totals. Meant for multi-GB captures.
//
// The binary layout (inside the gzip frame) is, all integers
// little-endian varints (encoding/binary Uvarint/Varint):
//
//	magic   4 bytes "NDPT"
//	version uvarint (2; version 1, without PCs, is still read)
//	name    uvarint length + bytes (source workload, informational)
//	seed    uvarint (capture seed, informational)
//	base    uvarint (lowest address touched; replay rebases against it)
//	span    uvarint (footprint: bytes from base through the last
//	        touched cache line)
//	streams uvarint, then one uvarint op count per stream
//	payload streams in order; per op:
//	        uvarint kind (0 compute, 1 load, 2 store), then
//	        compute: uvarint cycles
//	        load/store: varint address delta from the stream's
//	        previous load/store address (first delta is from 0, i.e.
//	        the absolute address), then a varint PC delta from the
//	        stream's previous load/store PC
//
// The writers emit only this form: binary version 2 and the three-column
// CSV. The readers also accept the older forms without PCs — binary
// version 1 (no PC delta after the address) and the two-column "op,addr"
// CSV — and decode every PC in them as zero. Address and PC deltas are
// per-stream, so streams decode independently of one another and of the
// header's base. WORKLOADS.md is the normative specification of both
// formats.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Kind is the kind of one captured operation. Values are the wire
// encoding and deliberately mirror workload.OpKind.
type Kind uint8

// Operation kinds.
const (
	Compute Kind = iota
	Load
	Store
)

// Op is one captured operation: a load/store address or a compute
// burst. PC is the issuing instruction's address; it reads as zero from
// the legacy forms that carry no PCs.
type Op struct {
	Kind   Kind
	Addr   uint64 // Load/Store
	PC     uint64 // Load/Store
	Cycles uint32 // Compute
}

// lineBytes is the cache-line width assumed when closing the footprint
// span over the last touched address (matches addr.LineSize; kept local
// so the format package stays dependency-free).
const lineBytes = 64

// Magic identifies a binary .ndpt capture (after gzip deframing).
const Magic = "NDPT"

// Version is the legacy binary format version, whose ops carry no
// instruction PCs. No writer emits it; Decode still reads it, with every
// PC zero.
const Version = 1

// VersionPC is the binary format version every Writer emits: each
// load/store carries its instruction PC. Decoding accepts both versions.
const VersionPC = 2

// Header describes a capture: identity of the source, the address span
// the streams touch, and the per-stream op totals.
type Header struct {
	// Version is the binary format version the capture was encoded
	// with (VersionPC, or the legacy Version); CSV-derived headers
	// report VersionPC under the pc column and Version without it.
	Version uint64
	// Name is the source workload's registry name (informational).
	Name string
	// Seed is the capture seed (informational).
	Seed uint64
	// Base is the lowest load/store address in the capture; replay
	// rebases every address by (allocated base - Base).
	Base uint64
	// Footprint is the captured address span in bytes: from Base
	// through the end of the last touched cache line. Zero when the
	// capture holds no loads or stores.
	Footprint uint64
	// Ops holds one op count per stream; len(Ops) is the stream count.
	Ops []uint64
}

// Streams returns the number of captured streams.
func (h Header) Streams() int { return len(h.Ops) }

// TotalOps returns the op count summed over all streams.
func (h Header) TotalOps() uint64 {
	var n uint64
	for _, c := range h.Ops {
		n += c
	}
	return n
}

// Check verifies that the header's totals describe streams: per-stream
// op counts, and the base/footprint of the addresses actually present.
// It is the consistency predicate behind ndptrace -verify.
func (h Header) Check(streams [][]Op) error {
	if len(streams) != len(h.Ops) {
		return fmt.Errorf("trace: header declares %d streams, payload has %d", len(h.Ops), len(streams))
	}
	var span spanTracker
	for i, s := range streams {
		if uint64(len(s)) != h.Ops[i] {
			return fmt.Errorf("trace: stream %d: header declares %d ops, payload has %d", i, h.Ops[i], len(s))
		}
		for _, op := range s {
			if op.Kind == Load || op.Kind == Store {
				span.touch(op.Addr)
			}
		}
	}
	base, footprint := span.bounds()
	if base != h.Base || footprint != h.Footprint {
		return fmt.Errorf("trace: header declares base %#x footprint %d, payload spans base %#x footprint %d",
			h.Base, h.Footprint, base, footprint)
	}
	return nil
}

// spanTracker accumulates the address span of a capture.
type spanTracker struct {
	min, max uint64
	touched  bool
}

func (s *spanTracker) touch(a uint64) {
	if !s.touched || a < s.min {
		s.min = a
	}
	if !s.touched || a > s.max {
		s.max = a
	}
	s.touched = true
}

// bounds returns (base, footprint); (0, 0) when nothing was touched.
func (s *spanTracker) bounds() (uint64, uint64) {
	if !s.touched {
		return 0, 0
	}
	return s.min, s.max - s.min + lineBytes
}

// Writer builds a binary capture incrementally: Append ops to streams,
// then Encode the gzip-framed file. Streams are delta-encoded as they
// arrive, so the builder holds the compact wire form (a few bytes per
// op), not the ops themselves.
type Writer struct {
	name    string
	seed    uint64
	streams []streamBuf
	span    spanTracker
}

type streamBuf struct {
	enc    []byte
	prev   uint64
	prevPC uint64
	ops    uint64
}

// NewWriter returns a builder for a version-2 capture of the given
// stream count: each load/store's instruction PC is recorded alongside
// its address.
func NewWriter(name string, seed uint64, streams int) *Writer {
	if streams < 1 {
		panic("trace: NewWriter needs at least one stream")
	}
	return &Writer{name: name, seed: seed, streams: make([]streamBuf, streams)}
}

// Append records one op on the given stream.
func (w *Writer) Append(stream int, op Op) {
	s := &w.streams[stream]
	s.ops++
	s.enc = binary.AppendUvarint(s.enc, uint64(op.Kind))
	switch op.Kind {
	case Compute:
		s.enc = binary.AppendUvarint(s.enc, uint64(op.Cycles))
	case Load, Store:
		s.enc = binary.AppendVarint(s.enc, int64(op.Addr-s.prev))
		s.enc = binary.AppendVarint(s.enc, int64(op.PC-s.prevPC))
		s.prev, s.prevPC = op.Addr, op.PC
		w.span.touch(op.Addr)
	default:
		panic(fmt.Sprintf("trace: unknown op kind %d", op.Kind))
	}
}

// Header returns the header the capture built so far would carry.
func (w *Writer) Header() Header {
	h := Header{Version: VersionPC, Name: w.name, Seed: w.seed, Ops: make([]uint64, len(w.streams))}
	h.Base, h.Footprint = w.span.bounds()
	for i := range w.streams {
		h.Ops[i] = w.streams[i].ops
	}
	return h
}

// Encode writes the capture as a gzip-framed .ndpt file.
func (w *Writer) Encode(out io.Writer) error {
	gz := gzip.NewWriter(out)
	h := w.Header()
	buf := []byte(Magic)
	buf = binary.AppendUvarint(buf, h.Version)
	buf = binary.AppendUvarint(buf, uint64(len(h.Name)))
	buf = append(buf, h.Name...)
	buf = binary.AppendUvarint(buf, h.Seed)
	buf = binary.AppendUvarint(buf, h.Base)
	buf = binary.AppendUvarint(buf, h.Footprint)
	buf = binary.AppendUvarint(buf, uint64(len(h.Ops)))
	for _, c := range h.Ops {
		buf = binary.AppendUvarint(buf, c)
	}
	if _, err := gz.Write(buf); err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	for i := range w.streams {
		if _, err := gz.Write(w.streams[i].enc); err != nil {
			return fmt.Errorf("trace: encode stream %d: %w", i, err)
		}
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// decoder reads the binary format. Every varint is expected (counts
// are declared up front), so EOF inside or between values is always a
// truncation.
type decoder struct {
	br *bufio.Reader
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, err := binary.ReadVarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return v, nil
}

// header parses the magic and header fields.
func (d *decoder) header() (Header, error) {
	var h Header
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(d.br, magic); err != nil {
		return h, fmt.Errorf("trace: truncated header: %w", err)
	}
	if string(magic) != Magic {
		return h, fmt.Errorf("trace: bad magic %q (not an .ndpt capture)", magic)
	}
	v, err := d.uvarint("version")
	if err != nil {
		return h, err
	}
	if v != Version && v != VersionPC {
		return h, fmt.Errorf("trace: unsupported format version %d (have %d and %d)", v, Version, VersionPC)
	}
	h.Version = v
	nameLen, err := d.uvarint("name length")
	if err != nil {
		return h, err
	}
	if nameLen > 1<<16 {
		return h, fmt.Errorf("trace: corrupt header: name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return h, fmt.Errorf("trace: truncated name: %w", err)
	}
	h.Name = string(name)
	if h.Seed, err = d.uvarint("seed"); err != nil {
		return h, err
	}
	if h.Base, err = d.uvarint("base"); err != nil {
		return h, err
	}
	if h.Footprint, err = d.uvarint("footprint"); err != nil {
		return h, err
	}
	streams, err := d.uvarint("stream count")
	if err != nil {
		return h, err
	}
	if streams < 1 || streams > 1<<20 {
		return h, fmt.Errorf("trace: corrupt header: %d streams", streams)
	}
	h.Ops = make([]uint64, streams)
	for i := range h.Ops {
		if h.Ops[i], err = d.uvarint("stream op count"); err != nil {
			return h, err
		}
	}
	return h, nil
}

// streams decodes the payload declared by h.
func (d *decoder) streamsOf(h Header) ([][]Op, error) {
	out := make([][]Op, len(h.Ops))
	for i, count := range h.Ops {
		// The count is file-supplied: cap the preallocation so a corrupt
		// header cannot panic makeslice or balloon memory before the
		// payload read fails; honest streams just grow past the hint.
		hint := count
		if hint > 1<<20 {
			hint = 1 << 20
		}
		ops := make([]Op, 0, hint)
		var prev, prevPC uint64
		for n := uint64(0); n < count; n++ {
			k, err := d.uvarint("op kind")
			if err != nil {
				return nil, fmt.Errorf("stream %d op %d: %w", i, n, err)
			}
			switch Kind(k) {
			case Compute:
				c, err := d.uvarint("compute cycles")
				if err != nil {
					return nil, fmt.Errorf("stream %d op %d: %w", i, n, err)
				}
				if c > 1<<32-1 {
					return nil, fmt.Errorf("trace: stream %d op %d: corrupt compute burst %d", i, n, c)
				}
				ops = append(ops, Op{Kind: Compute, Cycles: uint32(c)})
			case Load, Store:
				delta, err := d.varint("address delta")
				if err != nil {
					return nil, fmt.Errorf("stream %d op %d: %w", i, n, err)
				}
				prev += uint64(delta)
				op := Op{Kind: Kind(k), Addr: prev}
				if h.Version >= VersionPC {
					pcDelta, err := d.varint("pc delta")
					if err != nil {
						return nil, fmt.Errorf("stream %d op %d: %w", i, n, err)
					}
					prevPC += uint64(pcDelta)
					op.PC = prevPC
				}
				ops = append(ops, op)
			default:
				return nil, fmt.Errorf("trace: stream %d op %d: unknown op kind %d", i, n, k)
			}
		}
		out[i] = ops
	}
	switch _, err := d.br.ReadByte(); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("trace: trailing data after declared streams")
	default:
		return nil, fmt.Errorf("trace: corrupt frame: %w", err)
	}
	return out, nil
}

// DecodeHeader reads only the header of a binary capture.
func DecodeHeader(r io.Reader) (Header, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Header{}, fmt.Errorf("trace: not a gzip-framed capture: %w", err)
	}
	defer gz.Close()
	d := &decoder{br: bufio.NewReader(gz)}
	return d.header()
}

// Decode reads a full binary capture: header plus every stream.
func Decode(r io.Reader) (Header, [][]Op, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Header{}, nil, fmt.Errorf("trace: not a gzip-framed capture: %w", err)
	}
	defer gz.Close()
	d := &decoder{br: bufio.NewReader(gz)}
	h, err := d.header()
	if err != nil {
		return Header{}, nil, err
	}
	streams, err := d.streamsOf(h)
	if err != nil {
		return Header{}, nil, err
	}
	return h, streams, nil
}

// CSVHeader is the first line of a legacy CSV capture, whose load/store
// rows carry no PC. No writer emits it; DecodeCSV still reads it.
const CSVHeader = "op,addr"

// CSVHeaderPC is the first line of a CSV capture: load/store rows carry
// a third column, the issuing instruction's PC in hex.
const CSVHeaderPC = "op,addr,pc"

// CSVWriter streams one op stream in the CSV format, row by row, so a
// generator's ops need not be collected first. Write errors are sticky:
// once one occurs, every later Write and Flush returns it.
type CSVWriter struct {
	w   *bufio.Writer
	row []byte
}

// NewCSVWriter writes the CSVHeaderPC line and returns the row writer;
// every load/store row carries its PC as a third column.
func NewCSVWriter(w io.Writer) *CSVWriter {
	c := &CSVWriter{w: bufio.NewWriter(w)}
	c.w.WriteString(CSVHeaderPC + "\n") // an error is sticky in c.w
	return c
}

// Write appends op's row.
func (c *CSVWriter) Write(op Op) error {
	b := c.row[:0]
	switch op.Kind {
	case Load, Store:
		k := byte('L')
		if op.Kind == Store {
			k = 'S'
		}
		b = strconv.AppendUint(append(b, k, ',', '0', 'x'), op.Addr, 16)
		b = strconv.AppendUint(append(b, ",0x"...), op.PC, 16)
	case Compute:
		b = strconv.AppendUint(append(b, "C,"...), uint64(op.Cycles), 10)
	default:
		return fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
	c.row = append(b, '\n')
	_, err := c.w.Write(c.row)
	return err
}

// Flush writes any buffered rows to the underlying writer.
func (c *CSVWriter) Flush() error { return c.w.Flush() }

// DecodeCSV reads a CSV capture: one stream, a derived header (base,
// footprint, and op count computed from the rows; name and seed empty).
// Both headers are accepted; under the pc header, load/store rows carry
// a third hex column (the instruction PC) and the derived header
// reports VersionPC, while the legacy two-column form reports Version
// with every PC zero.
func DecodeCSV(r io.Reader) (Header, [][]Op, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	if !sc.Scan() {
		return Header{}, nil, fmt.Errorf("trace: empty CSV capture (want %q header)", CSVHeader)
	}
	pcs := false
	switch got := strings.TrimSpace(sc.Text()); got {
	case CSVHeader:
	case CSVHeaderPC:
		pcs = true
	default:
		return Header{}, nil, fmt.Errorf("trace: CSV header %q (want %q or %q)", got, CSVHeader, CSVHeaderPC)
	}
	var ops []Op
	var span spanTracker
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		kind, val, ok := strings.Cut(text, ",")
		if !ok {
			return Header{}, nil, fmt.Errorf("trace: CSV line %d: malformed row %q", line, text)
		}
		switch kind {
		case "L", "S":
			var pc uint64
			if pcs {
				addrField, pcField, ok := strings.Cut(val, ",")
				if !ok {
					return Header{}, nil, fmt.Errorf("trace: CSV line %d: missing pc column in %q", line, text)
				}
				p, err := strconv.ParseUint(strings.TrimPrefix(pcField, "0x"), 16, 64)
				if err != nil {
					return Header{}, nil, fmt.Errorf("trace: CSV line %d: bad pc %q", line, pcField)
				}
				val, pc = addrField, p
			}
			a, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 64)
			if err != nil {
				return Header{}, nil, fmt.Errorf("trace: CSV line %d: bad address %q", line, val)
			}
			k := Load
			if kind == "S" {
				k = Store
			}
			ops = append(ops, Op{Kind: k, Addr: a, PC: pc})
			span.touch(a)
		case "C":
			c, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return Header{}, nil, fmt.Errorf("trace: CSV line %d: bad cycle count %q", line, val)
			}
			ops = append(ops, Op{Kind: Compute, Cycles: uint32(c)})
		default:
			return Header{}, nil, fmt.Errorf("trace: CSV line %d: unknown op %q", line, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("trace: read CSV: %w", err)
	}
	h := Header{Version: Version, Ops: []uint64{uint64(len(ops))}}
	if pcs {
		h.Version = VersionPC
	}
	h.Base, h.Footprint = span.bounds()
	return h, [][]Op{ops}, nil
}

// gzipMagic are the two bytes every gzip stream starts with; they sniff
// binary captures apart from CSV.
var gzipMagic = []byte{0x1f, 0x8b}

// ReadFile loads a capture in either format, sniffed by content (gzip
// magic means binary, anything else is parsed as CSV).
func ReadFile(path string) (Header, [][]Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(2)
	if err == nil && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		return Decode(br)
	}
	return DecodeCSV(br)
}

// Sniff validates path as a capture and returns its header without
// retaining the streams: binary captures read only the header; CSV
// captures are scanned fully (their header is derived from the rows).
func Sniff(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(2)
	if err == nil && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		return DecodeHeader(br)
	}
	h, _, err := DecodeCSV(br)
	return h, err
}
