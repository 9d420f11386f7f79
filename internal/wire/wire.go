// Package wire provides the little-endian append/read primitives shared by
// the checkpoint encoders (DESIGN.md §15). Every multi-byte field in a
// checkpoint file goes through these helpers so the on-disk layout is fixed
// regardless of host byte order, and the Reader accumulates a single error
// instead of forcing a check after every field.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort reports a read past the end of the buffer — a truncated or
// misframed payload.
var ErrShort = errors.New("wire: truncated payload")

func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendString appends a u32 length prefix followed by the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// Reader consumes a buffer written with the Append helpers. After the first
// short read every subsequent call returns zero values; check Err once at
// the end of a decode instead of after each field.
type Reader struct {
	b   []byte
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.b) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		r.b = nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a u32-length-prefixed string written by AppendString.
func (r *Reader) String() string {
	n := r.Count(1)
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}

// Int reads a u32 as an int. A value beyond math.MaxInt32 is a misframed
// payload: it would wrap negative in a 32-bit int.
func (r *Reader) Int() int {
	v := r.U32()
	if v > math.MaxInt32 {
		r.err = ErrShort
		r.b = nil
		return 0
	}
	return int(v)
}

// Count reads a u32 element count and validates it against the bytes left
// in the buffer (minSize bytes per element), so a corrupt length cannot
// drive a multi-gigabyte allocation before the mismatch is noticed.
func (r *Reader) Count(minSize int) int {
	n := r.Int()
	if r.err == nil && minSize > 0 && n > len(r.b)/minSize {
		r.err = ErrShort
		r.b = nil
	}
	if r.err != nil {
		return 0
	}
	return n
}
