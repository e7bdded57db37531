// Package wire is the one binary codec of the system: TCP frames, WAL
// records and DM snapshots all use it, so a value that survives one survives
// the others.
//
// The format is hand-rolled and deliberately small:
//
//   - Every self-contained unit (a frame body, a log record, a snapshot)
//     leads with the format Version byte. A reader that meets any other
//     byte fails with a *VersionError naming it, before parsing anything.
//   - Integers are varints (zig-zag for signed), strings and byte slices
//     are a uvarint length followed by the bytes, and collections are a
//     uvarint count followed by their elements. Maps are written in sorted
//     key order, so equal state always encodes to equal bytes.
//   - Protocol messages are tagged: a uvarint tag from the uint16 tag table
//     (see Register), then the message's fields in a fixed order. Tag 0 is
//     the nil message.
//   - Opaque values (a replica's `Val any`) are one kind byte from a closed
//     set — nil, bool, int, int64, uint64, float64, string, []byte — then
//     the value. Anything else is refused at encode time with a
//     *ValueError; CheckValue applies the same rule up front.
//
// Decoding is bounds-checked: a Decoder records the first error, returns
// zero values from then on, and never panics, whatever the input. Decoded
// strings and byte slices are copies and never alias the input buffer.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Version is the format version byte that leads every frame body, WAL
// record and snapshot. Bump it on any incompatible change to the layout,
// the tag table or the field order of a tagged message.
const Version byte = 1

// VersionError reports input written in a format this build cannot read —
// for example a write-ahead log left by a build that encoded with gob.
type VersionError struct {
	// Got is the leading byte found where the format version belongs.
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: format version %d, this build reads only version %d", e.Got, Version)
}

// FormatError reports malformed input: truncated, over-long, an unknown tag
// or kind, or trailing bytes.
type FormatError struct {
	// Offset is the byte offset at which decoding failed.
	Offset int
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wire: malformed input at byte %d: %s", e.Offset, e.Reason)
}

// ValueError reports a value the codec cannot carry: an opaque value
// outside the closed set of kinds, or a message type with no tag.
type ValueError struct {
	// Type is the Go type of the refused value.
	Type string
	// Reason says which rule it broke.
	Reason string
}

func (e *ValueError) Error() string {
	return fmt.Sprintf("wire: cannot encode %s: %s", e.Type, e.Reason)
}

// Value kinds: the closed set of dynamic types an opaque value may hold.
const (
	kindNil byte = iota
	kindBool
	kindInt
	kindInt64
	kindUint64
	kindFloat64
	kindString
	kindBytes
)

// CheckValue reports whether v is one of the value kinds the codec carries,
// returning a *ValueError when it is not. Stores call it where a value
// enters the system, so every backend refuses the same values.
func CheckValue(v any) error {
	switch v.(type) {
	case nil, bool, int, int64, uint64, float64, string, []byte:
		return nil
	}
	return &ValueError{Type: fmt.Sprintf("%T", v), Reason: "values must be nil, bool, int, int64, uint64, float64, string or []byte"}
}

// Encoder appends encoded fields to a byte slice. Encoding cannot fail
// except on a value CheckValue refuses or an untagged message; the first
// such failure sticks and is reported by Err.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder returns an encoder appending to dst.
func NewEncoder(dst []byte) *Encoder { return &Encoder{buf: dst} }

// Bytes returns the encoded bytes (dst with everything appended).
func (e *Encoder) Bytes() []byte { return e.buf }

// Err returns the first encoding failure, or nil.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// RawBytes appends a length-prefixed byte slice.
func (e *Encoder) RawBytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Value appends an opaque value as a kind byte and its encoding.
func (e *Encoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.Byte(kindNil)
	case bool:
		e.Byte(kindBool)
		e.Bool(x)
	case int:
		e.Byte(kindInt)
		e.Int(x)
	case int64:
		e.Byte(kindInt64)
		e.Varint(x)
	case uint64:
		e.Byte(kindUint64)
		e.Uvarint(x)
	case float64:
		e.Byte(kindFloat64)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
	case string:
		e.Byte(kindString)
		e.String(x)
	case []byte:
		e.Byte(kindBytes)
		e.RawBytes(x)
	default:
		e.fail(CheckValue(v))
	}
}

// Message appends a tagged message: its uvarint tag, then its fields as
// its registered encoder writes them. A nil message is tag 0.
func (e *Encoder) Message(msg any) {
	if msg == nil {
		e.Uvarint(0)
		return
	}
	c, ok := byType[reflect.TypeOf(msg)]
	if !ok {
		e.fail(&ValueError{Type: fmt.Sprintf("%T", msg), Reason: "message type has no wire tag"})
		return
	}
	e.Uvarint(uint64(c.tag))
	c.enc(e, msg)
}

// Strings appends a counted list of strings of any string type.
func Strings[S ~string](e *Encoder, ss []S) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(string(s))
	}
}

// Slice appends a counted list, each element written by enc.
func Slice[T any](e *Encoder, s []T, enc func(*Encoder, T)) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		enc(e, v)
	}
}

// Map appends a counted map in sorted key order, each value written by
// enc, so equal maps encode to equal bytes.
func Map[K ~string, V any](e *Encoder, m map[K]V, enc func(*Encoder, V)) {
	e.Uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.String(string(k))
		enc(e, m[k])
	}
}

// Decoder reads fields back in the order an Encoder wrote them. Every read
// is bounds-checked; the first failure is recorded, later reads return zero
// values, and nothing panics.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. Decoded values never alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decoding failure, or a *FormatError if bytes
// remain unread — a unit must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.buf)-d.off))
	}
	return d.err
}

// More reports whether unread input remains: how a unit that ends in an
// optional section tells whether the section is there.
func (d *Decoder) More() bool { return d.err == nil && d.off < len(d.buf) }

func (d *Decoder) fail(reason string) {
	if d.err == nil {
		d.err = &FormatError{Offset: d.off, Reason: reason}
	}
	d.off = len(d.buf)
}

// CheckVersion reads the leading format byte, recording a *VersionError if
// it is not Version.
func (d *Decoder) CheckVersion() {
	if d.err != nil {
		return
	}
	if d.off >= len(d.buf) {
		d.fail("missing format version byte")
		return
	}
	if v := d.buf[d.off]; v != Version {
		d.err = &VersionError{Got: v}
		d.off = len(d.buf)
		return
	}
	d.off++
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.buf) {
		d.fail("truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("int out of range")
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad bool")
	return false
}

// Len reads a collection count. Every element takes at least one byte, so
// a count larger than the unread input is malformed — which bounds every
// allocation a decoder makes by the size of its input.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off) {
		d.fail(fmt.Sprintf("count %d exceeds remaining input", n))
		return 0
	}
	return int(n)
}

// span reads a length prefix and returns that many bytes of input, still
// aliasing the buffer; callers copy.
func (d *Decoder) span() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off) {
		d.fail(fmt.Sprintf("length %d exceeds remaining input", n))
		return nil
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// String reads a length-prefixed string (a copy).
func (d *Decoder) String() string { return string(d.span()) }

// RawBytes reads a length-prefixed byte slice (a copy, never nil).
func (d *Decoder) RawBytes() []byte { return append([]byte{}, d.span()...) }

// Value reads an opaque value written by Encoder.Value.
func (d *Decoder) Value() any {
	switch k := d.Byte(); k {
	case kindNil:
		return nil
	case kindBool:
		return d.Bool()
	case kindInt:
		return d.Int()
	case kindInt64:
		return d.Varint()
	case kindUint64:
		return d.Uvarint()
	case kindFloat64:
		if len(d.buf)-d.off < 8 {
			d.fail("truncated float64")
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
		return v
	case kindString:
		return d.String()
	case kindBytes:
		return d.RawBytes()
	default:
		if d.err == nil {
			d.off--
			d.fail(fmt.Sprintf("unknown value kind %d", k))
		}
		return nil
	}
}

// Message reads a tagged message written by Encoder.Message.
func (d *Decoder) Message() any {
	tag := d.Uvarint()
	if tag == 0 || d.err != nil {
		return nil
	}
	c := byTag[tag]
	if c == nil {
		d.fail(fmt.Sprintf("unknown message tag %d", tag))
		return nil
	}
	msg := c.dec(d)
	if d.err != nil {
		return nil
	}
	return msg
}

// maxPrealloc caps the capacity a decoder reserves from a count it has
// not yet seen the elements for, so a short malformed input cannot make it
// reserve memory many times its own size.
const maxPrealloc = 1024

// ReadStrings reads a list written by Strings. An empty list decodes as
// nil.
func ReadStrings[S ~string](d *Decoder) []S {
	return ReadSlice(d, func(d *Decoder) S { return S(d.String()) })
}

// ReadSlice reads a list written by Slice. An empty list decodes as nil.
func ReadSlice[T any](d *Decoder, dec func(*Decoder) T) []T {
	n := d.Len()
	if n == 0 {
		return nil
	}
	out := make([]T, 0, min(n, maxPrealloc))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, dec(d))
	}
	return out
}

// ReadMap reads a map written by Map. An empty map decodes as nil.
func ReadMap[K ~string, V any](d *Decoder, dec func(*Decoder) V) map[K]V {
	n := d.Len()
	if n == 0 {
		return nil
	}
	out := make(map[K]V, min(n, maxPrealloc))
	for i := 0; i < n && d.err == nil; i++ {
		k := K(d.String())
		out[k] = dec(d)
	}
	return out
}

// Marshal encodes one self-contained message — the version byte, then the
// tagged message — appended to dst.
func Marshal(dst []byte, msg any) ([]byte, error) {
	e := NewEncoder(dst)
	e.Byte(Version)
	e.Message(msg)
	return e.buf, e.err
}

// Unmarshal decodes a unit written by Marshal. Failures are a
// *VersionError or a *FormatError.
func Unmarshal(b []byte) (any, error) {
	d := NewDecoder(b)
	d.CheckVersion()
	msg := d.Message()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return msg, nil
}

// codec is one row of the tag table.
type codec struct {
	tag uint16
	enc func(*Encoder, any)
	dec func(*Decoder) any
}

// The tag table. Filled by Register from package init functions and only
// read afterwards, so lookups need no lock.
var (
	byTag  = map[uint64]*codec{}
	byType = map[reflect.Type]*codec{}
)

// Register adds message type T to the tag table under tag, with the
// functions that write and read its fields. It panics on tag 0 and on a
// tag or type registered twice: each is a bug in the registering package's
// init, not a runtime condition.
func Register[T any](tag uint16, enc func(*Encoder, T), dec func(*Decoder) T) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	switch {
	case tag == 0:
		panic("wire: tag 0 is reserved for the nil message")
	case byTag[uint64(tag)] != nil:
		panic(fmt.Sprintf("wire: tag %d registered twice", tag))
	case byType[t] != nil:
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	c := &codec{
		tag: tag,
		enc: func(e *Encoder, m any) { enc(e, m.(T)) },
		dec: func(d *Decoder) any { return dec(d) },
	}
	byTag[uint64(tag)] = c
	byType[t] = c
}
