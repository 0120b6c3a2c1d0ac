package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip writes one of every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Section("header")
	e.U8(0x7f)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Int(1 << 40)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.String("hello")
	e.Section("trailer")
	e.Len(3)
	for i := 0; i < 3; i++ {
		e.U8(uint8(i))
	}

	d, err := NewDecoder(e.Finish())
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Section("header")
	if got := d.U8(); got != 0x7f {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 1<<40 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	d.Section("trailer")
	if got := d.Len(1); got != 3 {
		t.Errorf("Len = %d", got)
	}
	for i := 0; i < 3; i++ {
		if got := d.U8(); got != uint8(i) {
			t.Errorf("Len element %d = %d", i, got)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err after round-trip: %v", err)
	}
}

// TestDeterministicEncoding asserts two identical encode sequences
// produce identical blobs.
func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		e := NewEncoder()
		e.Section("s")
		for i := 0; i < 100; i++ {
			e.I64(int64(i * 7))
			e.F64(float64(i) / 3)
		}
		return e.Finish()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical encode sequences produced different blobs")
	}
}

// TestEncoderReset encodes a long blob, resets, and encodes a short
// one: the short blob must match a fresh encoder's byte for byte, with
// nothing of the long blob's header or tail left behind, and must reuse
// the long blob's storage.
func TestEncoderReset(t *testing.T) {
	short := func(e *Encoder) []byte {
		e.Section("short")
		e.U64(7)
		e.String("tail")
		return e.Finish()
	}
	want := short(NewEncoder())

	e := NewEncoder()
	e.Section("long")
	for i := 0; i < 1<<12; i++ {
		e.U64(^uint64(i))
	}
	long := e.Finish()
	e.Reset()
	got := short(e)
	if !bytes.Equal(got, want) {
		t.Fatalf("short blob after reset differs from a fresh encoder's:\ngot  %x\nwant %x", got, want)
	}
	if &got[0] != &long[0] {
		t.Error("reset encoder did not reuse its storage")
	}
	if _, err := NewDecoder(got); err != nil {
		t.Fatalf("short blob after reset: %v", err)
	}

	// A reset encoder that writes nothing seals an empty payload, like
	// a fresh one.
	e.Reset()
	if empty, fresh := e.Finish(), NewEncoder().Finish(); !bytes.Equal(empty, fresh) || len(empty) != headerSize {
		t.Fatalf("empty blob after reset = %x, fresh = %x", empty, fresh)
	}
}

// TestRejectTruncated asserts truncation at every length fails cleanly.
func TestRejectTruncated(t *testing.T) {
	e := NewEncoder()
	e.Section("s")
	e.U64(12345)
	e.String("payload")
	blob := e.Finish()
	for n := 0; n < len(blob); n++ {
		d, err := NewDecoder(blob[:n])
		if err != nil {
			continue // header-level rejection is fine
		}
		d.Section("s")
		d.U64()
		_ = d.String()
		if d.Err() == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(blob))
		}
	}
}

// TestRejectCorrupted flips each byte and asserts the checksum (or a
// later structural check) catches it.
func TestRejectCorrupted(t *testing.T) {
	e := NewEncoder()
	e.Section("s")
	e.U64(999)
	blob := e.Finish()
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		d, err := NewDecoder(bad)
		if err != nil {
			continue
		}
		d.Section("s")
		d.U64()
		if d.Err() == nil {
			t.Fatalf("corruption at byte %d decoded cleanly", i)
		}
	}
}

// TestChecksumIsCRCPair pins the header's checksum field: CRC-32C of
// the payload in the high word, CRC-32 (IEEE) in the low word.
func TestChecksumIsCRCPair(t *testing.T) {
	e := NewEncoder()
	e.Section("crc")
	e.String("123456789")
	blob := e.Finish()
	payload := blob[headerSize:]
	want := uint64(crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(payload))
	if got := binary.LittleEndian.Uint64(blob[8:16]); got != want {
		t.Fatalf("header checksum %#016x, want %#016x", got, want)
	}
}

// TestRejectVersionSkew rewrites the version field and asserts the
// decoder refuses the blob by name.
func TestRejectVersionSkew(t *testing.T) {
	e := NewEncoder()
	e.U64(1)
	blob := e.Finish()
	binary.LittleEndian.PutUint32(blob[4:8], Version+1)
	if _, err := NewDecoder(blob); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// TestSectionMismatch asserts a wrong section tag reports both names.
func TestSectionMismatch(t *testing.T) {
	e := NewEncoder()
	e.Section("percpu")
	d, err := NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	d.Section("transfer")
	err = d.Err()
	if err == nil || !strings.Contains(err.Error(), "percpu") || !strings.Contains(err.Error(), "transfer") {
		t.Fatalf("section mismatch error %v does not name both sections", err)
	}
}

// TestLenRejectsOversizedCount asserts a length prefix larger than the
// remaining payload is rejected before any allocation.
func TestLenRejectsOversizedCount(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 30) // a raw count with no elements behind it
	d, err := NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Len(8); n != 0 || d.Err() == nil {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, d.Err())
	}
}
