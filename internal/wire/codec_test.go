package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.Site(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(1 << 40)
	w.I64(-123456789)
	w.Bool(true)
	w.Bool(false)
	w.String("hello, Γ⁺")
	w.Bytes2([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.Site(); v != 0xBEEF {
		t.Errorf("Site = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -123456789 {
		t.Errorf("I64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.String(); v != "hello, Γ⁺" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes2(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes2 = %v", v)
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes remaining", r.Remaining())
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(u uint64, i int64, s string) bool {
		var w Writer
		w.U64(u)
		w.I64(i)
		w.String(s)
		r := NewReader(w.Bytes())
		return r.U64() == u && r.I64() == i && r.String() == s && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if r.Err() == nil {
		t.Error("U32 on 1 byte must fail")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(nil)
	_ = r.U8()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.U64()
	_ = r.String()
	if r.Err() != first {
		t.Error("error must be sticky (first error wins)")
	}
	if v := r.U64(); v != 0 {
		t.Errorf("reads after error must return zero, got %d", v)
	}
}

func TestStringTooLong(t *testing.T) {
	var w Writer
	w.U64(maxStringLen + 1)
	r := NewReader(w.Bytes())
	_ = r.String()
	if r.Err() == nil {
		t.Error("oversized string length must be rejected")
	}
}

func TestBytes2Copied(t *testing.T) {
	var w Writer
	w.Bytes2([]byte{9, 9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes2()
	buf[len(buf)-1] = 0
	if got[2] != 9 {
		t.Error("Bytes2 must copy out of the underlying buffer")
	}
}

func TestEmptyStringAndBytes(t *testing.T) {
	var w Writer
	w.String("")
	w.Bytes2(nil)
	r := NewReader(w.Bytes())
	if s := r.String(); s != "" {
		t.Errorf("String = %q", s)
	}
	if b := r.Bytes2(); len(b) != 0 {
		t.Errorf("Bytes2 = %v", b)
	}
	if r.Err() != nil {
		t.Error(r.Err())
	}
}

// Decoding random garbage must never panic, only error.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		r := NewReader(garbage)
		_ = r.U64()
		_ = r.String()
		_ = r.I64()
		_ = r.Bytes2()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
