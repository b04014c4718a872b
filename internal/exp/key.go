package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// KeyVersion is the version of the canonical key encoding. It is the
// first value of every encoding, so it is folded into every key's
// hash: a change to how any keyed type is encoded bumps it, and every
// key of the old format then differs from every key of the new one.
const KeyVersion = 1

// KeyEncoder builds one canonical key: a typed, self-delimiting binary
// encoding of the values that determine a result, hashed once by Sum.
// Each keyed type writes its own fields through it, in declaration
// order, so a key is a function of the values alone, never of how Go
// spells a type, a field or a package.
//
// The encoding of each value:
//
//   - String: its length as a uvarint, then its bytes;
//   - Int, Int64: a zigzag varint;
//   - Float64: the 8 big-endian bytes of its IEEE 754 bits (so -0 and
//     0 differ);
//   - Bool: one byte, 0 or 1;
//   - a list: Len, its length as a uvarint, then each element; a nil
//     and an empty list both encode as length 0.
//
// Every value delimits itself, so for a fixed sequence of value types
// the encoding is injective: ("ab","c") and ("a","bc"), or [1 2],[3]
// and [1],[2 3], never share a key. Callers keep the sequence fixed per
// key name, which NewKeyEncoder writes first.
type KeyEncoder struct {
	// The encoding is head followed by buf[:n]. It is written into buf,
	// which lives wherever the encoder does (typically the caller's
	// stack), and spills to head only when it outgrows buf.
	head []byte
	n    int
	buf  [256]byte
}

// NewKeyEncoder starts the encoding of a key: it writes KeyVersion and
// the key's name, which tells apart keys whose values would otherwise
// encode alike.
func NewKeyEncoder(name string) KeyEncoder {
	var e KeyEncoder
	e.uvarint(KeyVersion)
	e.String(name)
	return e
}

// write appends raw bytes to the encoding.
func (e *KeyEncoder) write(p []byte) {
	if e.n+len(p) > len(e.buf) {
		e.head = append(e.head, e.buf[:e.n]...)
		e.head = append(e.head, p...)
		e.n = 0
		return
	}
	e.n += copy(e.buf[e.n:], p)
}

func (e *KeyEncoder) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	e.write(binary.AppendUvarint(b[:0], v))
}

// String appends a string.
func (e *KeyEncoder) String(s string) {
	e.uvarint(uint64(len(s)))
	e.write([]byte(s))
}

// Int appends an int.
func (e *KeyEncoder) Int(v int) { e.Int64(int64(v)) }

// Int64 appends an int64.
func (e *KeyEncoder) Int64(v int64) {
	var b [binary.MaxVarintLen64]byte
	e.write(binary.AppendVarint(b[:0], v))
}

// Float64 appends a float64 as its IEEE 754 bits.
func (e *KeyEncoder) Float64(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	e.write(b[:])
}

// Bool appends a bool.
func (e *KeyEncoder) Bool(v bool) {
	var b [1]byte
	if v {
		b[0] = 1
	}
	e.write(b[:])
}

// Len opens a list of n elements; the caller then appends each one.
func (e *KeyEncoder) Len(n int) { e.uvarint(uint64(n)) }

// Strings appends a list of strings.
func (e *KeyEncoder) Strings(l []string) {
	e.Len(len(l))
	for _, s := range l {
		e.String(s)
	}
}

// Ints appends a list of ints.
func (e *KeyEncoder) Ints(l []int) {
	e.Len(len(l))
	for _, v := range l {
		e.Int(v)
	}
}

// Float64s appends a list of float64s.
func (e *KeyEncoder) Float64s(l []float64) {
	e.Len(len(l))
	for _, v := range l {
		e.Float64(v)
	}
}

// Bools appends a list of bools.
func (e *KeyEncoder) Bools(l []bool) {
	e.Len(len(l))
	for _, v := range l {
		e.Bool(v)
	}
}

// Append appends sub's whole encoding, its version and name included,
// so a value that several keys share is encoded once and copied into
// each.
func (e *KeyEncoder) Append(sub *KeyEncoder) {
	e.write(sub.head)
	e.write(sub.buf[:sub.n])
}

// Sum returns the key: the sha256 of the encoding as 64 lowercase hex
// digits, behind stage and a colon when stage is not empty. The stage
// prefix is what Engine.StageStats attributes hits and misses to.
func (e *KeyEncoder) Sum(stage string) string {
	var sum [sha256.Size]byte
	if e.head == nil {
		sum = sha256.Sum256(e.buf[:e.n])
	} else {
		// Clipped, so the concatenation is a copy: Sum never writes into
		// head's spare capacity, and may run while others read e.
		sum = sha256.Sum256(append(e.head[:len(e.head):len(e.head)], e.buf[:e.n]...))
	}
	var out [96]byte
	b := append(out[:0], stage...)
	if stage != "" {
		b = append(b, ':')
	}
	b = hex.AppendEncode(b, sum[:])
	return string(b)
}
