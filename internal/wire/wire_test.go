package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

type sample struct {
	Name string
	N    int
	Tags []string
	M    map[string]int
	V    any
}

func init() {
	Register(9001, func(e *Encoder, s sample) {
		e.String(s.Name)
		e.Int(s.N)
		Strings(e, s.Tags)
		Map(e, s.M, (*Encoder).Int)
		e.Value(s.V)
	}, func(d *Decoder) sample {
		return sample{Name: d.String(), N: d.Int(), Tags: ReadStrings[string](d), M: ReadMap[string](d, (*Decoder).Int), V: d.Value()}
	})
}

// TestValueKinds round-trips every value kind, including the edges of each
// numeric range, and checks that CheckValue admits exactly those kinds.
func TestValueKinds(t *testing.T) {
	vals := []any{
		nil, false, true, 0, -1, math.MaxInt, math.MinInt,
		int64(math.MinInt64), uint64(math.MaxUint64), 3.25, math.Inf(-1),
		"", "héllo", []byte{}, []byte{0, 1, 255},
	}
	for _, v := range vals {
		if err := CheckValue(v); err != nil {
			t.Fatalf("CheckValue(%#v) = %v", v, err)
		}
		e := NewEncoder(nil)
		e.Value(v)
		if e.Err() != nil {
			t.Fatalf("encode %#v: %v", v, e.Err())
		}
		d := NewDecoder(e.Bytes())
		got := d.Value()
		if err := d.Finish(); err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %#v (%T) gave %#v (%T)", v, v, got, got)
		}
	}
	for _, v := range []any{int32(1), struct{}{}, []int{1}, map[string]int{}, &sample{}} {
		var ve *ValueError
		if err := CheckValue(v); !errors.As(err, &ve) {
			t.Fatalf("CheckValue(%T) = %v, want a *ValueError", v, err)
		}
		e := NewEncoder(nil)
		e.Value(v)
		if !errors.As(e.Err(), &ve) {
			t.Fatalf("encoding %T gave %v, want a *ValueError", v, e.Err())
		}
	}
}

// TestMapsEncodeCanonically checks that equal maps encode to equal bytes
// whatever their iteration order, so snapshots of equal state are equal.
func TestMapsEncodeCanonically(t *testing.T) {
	m := map[string]int{}
	for i := 0; i < 64; i++ {
		m[string(rune('a'+i%26))+string(rune('A'+i/26))] = i
	}
	first, err := Marshal(nil, sample{M: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, _ := Marshal(nil, sample{M: m})
		if !bytes.Equal(first, again) {
			t.Fatal("the same map encoded to different bytes")
		}
	}
}

// TestTruncationNeverPanics decodes every prefix of a valid unit: each must
// fail with a *FormatError, never panic and never succeed.
func TestTruncationNeverPanics(t *testing.T) {
	b, err := Marshal(nil, sample{Name: "x", N: -300, Tags: []string{"a", "bc"}, M: map[string]int{"k": 1}, V: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		_, err := Unmarshal(b[:n])
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("prefix of %d bytes: got %v, want a *FormatError", n, err)
		}
	}
	var fe *FormatError
	if _, err := Unmarshal(append(b, 0)); !errors.As(err, &fe) {
		t.Fatalf("trailing byte: got %v, want a *FormatError", err)
	}
}

// TestCountsBoundedByInput checks that a collection count larger than the
// remaining input fails before anything is allocated for it.
func TestCountsBoundedByInput(t *testing.T) {
	e := NewEncoder(nil)
	e.Byte(Version)
	e.Uvarint(9001)
	e.String("x")
	e.Int(1)
	e.Uvarint(1 << 40) // Tags count
	var fe *FormatError
	if _, err := Unmarshal(e.Bytes()); !errors.As(err, &fe) {
		t.Fatalf("huge count: got %v, want a *FormatError", err)
	}
}

// TestVersionAndTagErrors checks the typed errors for a foreign format
// byte and for a tag nobody registered.
func TestVersionAndTagErrors(t *testing.T) {
	var ve *VersionError
	if _, err := Unmarshal([]byte{Version + 1, 1}); !errors.As(err, &ve) || ve.Got != Version+1 {
		t.Fatalf("foreign version: got %v, want a *VersionError", err)
	}
	var fe *FormatError
	if _, err := Unmarshal([]byte{Version, 0x7f}); !errors.As(err, &fe) {
		t.Fatalf("unknown tag: got %v, want a *FormatError", err)
	}
	msg, err := Unmarshal([]byte{Version, 0})
	if err != nil || msg != nil {
		t.Fatalf("tag 0: got (%v, %v), want the nil message", msg, err)
	}
	if _, err := Marshal(nil, struct{ X int }{}); !errors.As(err, new(*ValueError)) {
		t.Fatalf("untagged type: got %v, want a *ValueError", err)
	}
}

// TestDecodedBytesDoNotAliasInput checks that decoded strings and byte
// slices are copies: overwriting the input afterwards changes nothing.
func TestDecodedBytesDoNotAliasInput(t *testing.T) {
	b, err := Marshal(nil, sample{Name: "name", Tags: []string{"tag"}, V: []byte("bytes")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xAA
	}
	s := got.(sample)
	if s.Name != "name" || s.Tags[0] != "tag" || string(s.V.([]byte)) != "bytes" {
		t.Fatalf("decoded value changed with its input: %+v", s)
	}
}

// TestMoreReportsOptionalSection: More tells a reader whether a trailing
// optional section follows, and is false after a failure.
func TestMoreReportsOptionalSection(t *testing.T) {
	e := NewEncoder(nil)
	e.Int(7)
	d := NewDecoder(e.Bytes())
	d.Int()
	if d.More() {
		t.Fatal("More after the last field")
	}
	e.String("section")
	d = NewDecoder(e.Bytes())
	d.Int()
	if !d.More() {
		t.Fatal("More missed the trailing section")
	}
	if d.String() != "section" || d.Finish() != nil {
		t.Fatal("trailing section did not decode")
	}
	d = NewDecoder([]byte{0xff})
	d.Uvarint()
	if d.More() {
		t.Fatal("More after a decode failure")
	}
}
