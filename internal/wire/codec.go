// Package wire defines the message vocabulary of the system — the DvP
// requests and virtual messages of §3–§5, plus the lock/prepare/vote
// traffic of the traditional baselines — together with a compact,
// hand-rolled binary codec and the Endpoint abstraction that both the
// simulated network (internal/simnet) and the real TCP transport
// (internal/tcpnet) implement.
//
// Everything that crosses a site boundary is serialized through this
// package, even in-process, so every test exercises the codec.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// ErrShort reports a truncated buffer during decode.
var ErrShort = errors.New("wire: short buffer")

// ErrTooLong reports a length field exceeding sane bounds.
var ErrTooLong = errors.New("wire: length out of range")

// maxStringLen bounds decoded strings/byte slices; nothing in the
// system sends large blobs, so a tight bound catches corruption early.
const maxStringLen = 1 << 20

// Writer accumulates a binary encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the accumulated encoding but keeps the underlying
// capacity, so a Writer can be reused across encodes without
// re-allocating its buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// PatchU32 overwrites the 4 bytes at off with a fixed-width big-endian
// uint32. The bytes must already have been written (e.g. as a length
// placeholder via U32(0)); patching past the end panics, like any
// out-of-range slice write.
func (w *Writer) PatchU32(off int, v uint32) {
	binary.BigEndian.PutUint32(w.buf[off:off+4], v)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a fixed-width big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 appends a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Site appends a site id as one unsigned varint: 1 byte below 128.
func (w *Writer) Site(s ident.SiteID) { w.U64(uint64(s)) }

// TS appends a timestamp as its counter, then its site, each an
// unsigned varint. A drawn timestamp at a counter below 2²¹ and a site
// below 128 takes at most 4 bytes; the zero timestamp takes 2.
func (w *Writer) TS(t tstamp.TS) {
	w.U64(t.Counter())
	w.Site(t.Site())
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes2 appends a length-prefixed byte slice.
func (w *Writer) Bytes2(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes a binary encoding produced by Writer. Decode errors
// are sticky: after the first error every subsequent read returns the
// zero value and Err() reports the failure, so decoders can be written
// without per-field error checks.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err as the decode error, unless one is recorded already:
// the sticky error every read sets, and a decoder's own when it finds
// its input well-formed byte by byte but inconsistent as a whole.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Fail(ErrShort)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U32 reads a fixed-width big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(ErrShort)
		return 0
	}
	r.off += n
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(ErrShort)
		return 0
	}
	r.off += n
	return v
}

// maxSite is the largest site id (ident.SiteID's range); maxCounter the
// largest timestamp counter (the bits of a TS above its site).
const (
	maxSite    = 1<<16 - 1
	maxCounter = 1<<(64-tstamp.SiteBits) - 1
)

// Site reads a site id written by Writer.Site, failing the reader
// (ErrTooLong) on a value above 65535.
func (r *Reader) Site() ident.SiteID {
	return ident.SiteID(r.Count(maxSite))
}

// TS reads a timestamp written by Writer.TS, failing the reader
// (ErrTooLong) on a counter or site out of range, so every timestamp
// has exactly one encoding.
func (r *Reader) TS() tstamp.TS {
	c := r.Count(maxCounter)
	return tstamp.Make(c, r.Site())
}

// Count reads a length prefix and fails the reader (ErrTooLong) if it
// exceeds max, so that no decoder sizes an allocation from, or skips
// past, a count it cannot honour.
func (r *Reader) Count(max uint64) uint64 {
	n := r.U64()
	if r.err == nil && n > max {
		r.Fail(fmt.Errorf("%w: count %d above %d", ErrTooLong, n, max))
		return 0
	}
	return n
}

// Done returns the first decode error or, if there was none, an error
// for any bytes left unconsumed: a payload decodes whole or not at all.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Bool reads a boolean byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.Fail(fmt.Errorf("%w: string of %d bytes", ErrTooLong, n))
		return ""
	}
	if r.off+int(n) > len(r.buf) {
		r.Fail(ErrShort)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Bytes2 reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) Bytes2() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxStringLen {
		r.Fail(fmt.Errorf("%w: blob of %d bytes", ErrTooLong, n))
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.Fail(ErrShort)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:])
	r.off += int(n)
	return b
}
