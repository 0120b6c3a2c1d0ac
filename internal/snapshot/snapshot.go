// Package snapshot is the versioned, deterministic binary codec behind
// checkpoint/restore of per-machine simulation state. Every stateful
// package (rng, mem, the four cache tiers, check, telemetry, heapprof,
// core, workload) serializes itself through an Encoder and restores
// through a Decoder; the contract the fleet's crash-tolerance layer
// builds on is that resuming from a snapshot is bit-identical to an
// uninterrupted run (see DESIGN.md, "Crash tolerance & machine
// lifecycle").
//
// The wire format is deliberately simple and fully deterministic:
//
//	"WSMS" magic | u32 version | u64 checksum of payload | u32 payload len | payload
//
// The checksum packs two CRC-32s of the payload into one 64-bit field:
// CRC-32C (Castagnoli) in the high word, CRC-32 (IEEE) in the low word.
// Both run on the CPU's CRC instructions where hash/crc32 has them, so
// sealing and verifying a blob costs a small fraction of encoding it.
//
// The payload is a flat sequence of fixed-width little-endian primitives
// and length-prefixed byte strings, punctuated by named section markers.
// Sections serve two purposes: a corrupted or version-skewed blob fails
// fast with the name of the first diverging section, and the markers
// double as structural checksums localizing encoder/decoder drift during
// development.
//
// Decoding never panics on hostile input. The Decoder carries a sticky
// error: after the first failure every read returns a zero value, so
// per-package DecodeState methods can be written as straight-line reads
// with a single error check at the end. Length-prefixed reads validate
// the prefix against the remaining payload before allocating, so a
// corrupted length cannot cause a huge allocation or an out-of-range
// slice.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current snapshot format version. A blob recording any
// other version is rejected at NewDecoder time: the simulator's state
// layout and its sampling epoch (which random streams a seed yields)
// change in lockstep with this constant, and resuming across either
// would silently diverge from the uninterrupted run.
//
// Version 2 is the ziggurat sampling epoch: the generator no longer
// carries a cached normal variate, and every stream differs from
// version 1's. Version 3 keeps that epoch's streams and changes the
// machine blob: one machine-runtime encoding shared by the fleet runner
// and the daemon, the carry registry in fleet blobs, and the daemon's
// per-blob checkpoint tick. Version 4 keeps version 3's payload byte
// for byte and replaces the header's FNV-1a checksum with the CRC pair.
const Version = 4

// magic identifies a snapshot blob.
var magic = [4]byte{'W', 'S', 'M', 'S'}

// headerSize is magic + version + checksum + payload length.
const headerSize = 4 + 4 + 8 + 4

// sectionMark precedes every section tag in the payload, so a reader
// that has drifted out of alignment fails on the next section instead
// of misinterpreting arbitrary bytes as state.
const sectionMark = 0xA5

// castagnoli is the CRC-32C table; crc32 picks the hardware path for it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the header's 64-bit payload check: CRC-32C in the high
// word, CRC-32 (IEEE) in the low word.
func checksum(payload []byte) uint64 {
	return uint64(crc32.Checksum(payload, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(payload))
}

// Encoder accumulates a snapshot payload behind a reserved header slot,
// so Finish seals the blob in place instead of copying the payload. The
// zero value is ready to use. Reset rewinds an encoder and keeps its
// storage: one encoder reused across blobs stops growing once it has
// held the largest of them.
type Encoder struct {
	// buf is empty until the first write; from then on buf[:headerSize]
	// is the header slot and the rest is the payload.
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Reset discards the payload and keeps the storage, ending the life of
// the last blob Finish returned.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// out returns the buffer with the header slot reserved.
func (e *Encoder) out() []byte {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, make([]byte, headerSize)...)
	}
	return e.buf
}

// Section writes a named section marker.
func (e *Encoder) Section(tag string) {
	e.buf = append(e.out(), sectionMark)
	e.String(tag)
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.out(), v) }

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.out(), v)
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.out(), v)
}

// I64 writes an int64 as its two's-complement bit pattern.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern, so restored
// accumulators resume with exactly the bits they were saved with.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.out(), b...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.out(), s...)
}

// Len writes a collection length (non-negative int).
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

// Finish seals the payload into a versioned, checksummed blob by
// filling in the header slot. The blob shares the encoder's storage:
// it stays valid until the encoder's next Reset or Finish.
func (e *Encoder) Finish() []byte {
	blob := e.out()
	payload := blob[headerSize:]
	copy(blob, magic[:])
	binary.LittleEndian.PutUint32(blob[4:8], Version)
	binary.LittleEndian.PutUint64(blob[8:16], checksum(payload))
	binary.LittleEndian.PutUint32(blob[16:20], uint32(len(payload)))
	return blob[:len(blob):len(blob)]
}

// Decoder reads a snapshot payload with a sticky error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder validates the blob header (magic, version, length,
// checksum) and returns a decoder positioned at the payload start.
func NewDecoder(blob []byte) (*Decoder, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("snapshot: blob truncated at %d bytes (header is %d)", len(blob), headerSize)
	}
	if [4]byte(blob[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", blob[:4])
	}
	ver := binary.LittleEndian.Uint32(blob[4:8])
	if ver != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d: written by a build with another "+
			"state layout or sampling epoch, whose runs do not continue in this one", ver, Version)
	}
	sum := binary.LittleEndian.Uint64(blob[8:16])
	n := binary.LittleEndian.Uint32(blob[16:20])
	payload := blob[headerSize:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("snapshot: payload is %d bytes, header says %d", len(payload), n)
	}
	if got := checksum(payload); got != sum {
		return nil, fmt.Errorf("snapshot: payload checksum %#x, want %#x", got, sum)
	}
	return &Decoder{buf: payload}, nil
}

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// fail records the first error; later reads keep returning zeros.
func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Fail records a structural validation failure found by a caller (e.g.
// a decoded collection size disagreeing with the constructed layout).
// Like internal failures it is sticky: only the first error is kept.
func (d *Decoder) Fail(format string, args ...interface{}) {
	d.fail(format, args...)
}

// take returns the next n payload bytes, or nil after recording an
// error when fewer remain.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Section consumes a section marker and verifies its tag, failing with
// both names on mismatch.
func (d *Decoder) Section(tag string) {
	if d.err != nil {
		return
	}
	b := d.take(1)
	if b == nil {
		return
	}
	if b[0] != sectionMark {
		d.fail("expected section %q marker, found byte %#x", tag, b[0])
		return
	}
	got := d.String()
	if d.err == nil && got != tag {
		d.fail("section mismatch: decoding %q, blob has %q", tag, got)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes reads a length-prefixed byte string (a copy, so the blob can be
// released).
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	b := d.take(int(n))
	return string(b)
}

// Len reads a collection length and validates it against the bytes
// remaining with at least elemSize bytes per element, so a corrupted
// count cannot drive a huge allocation. elemSize <= 0 counts as 1.
func (d *Decoder) Len(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize <= 0 {
		elemSize = 1
	}
	if remaining := len(d.buf) - d.off; n > remaining/elemSize {
		d.fail("length %d exceeds remaining payload (%d bytes, %d per element)",
			n, len(d.buf)-d.off, elemSize)
		return 0
	}
	return n
}
