package dist

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"slices"
	"unsafe"
)

// plainCodec encodes and decodes the values of one plain type. Plain
// types are bool, fixed-size ints and uints, int and uint, floats,
// string, and arrays, slices and structs built only of plain types —
// structs with every field exported. Their wire form:
//
//	bool            1 byte, 0 or 1
//	ints, uints     fixed width big-endian: 1, 2, 4 or 8 bytes; int and
//	                uint are 8 bytes on every platform
//	floats          their IEEE 754 bits, 4 or 8 bytes big-endian
//	string, slice   uvarint length, then the bytes or the elements
//	array           the elements
//	struct          the fields in declaration order
//
// The encoding is canonical: a value has exactly one, so a payload
// that decodes re-encodes to itself. A length is the shortest uvarint,
// and no larger than the bytes left could hold. A zero-length string
// or slice decodes as the zero value, nil for a slice, as under gob.
// Decoding fills a zero value and copies out of the payload, so the
// value keeps no reference to the frame it came in.
type plainCodec struct {
	enc func(b []byte, v reflect.Value) []byte
	// dec decodes a value from the front of p into v, a settable zero
	// value, and returns what is left of p.
	dec func(v reflect.Value, p []byte) ([]byte, error)
	// min is the fewest bytes a value encodes to; a slice's elements
	// must have min > 0, which bounds a decoded length by the payload.
	min int
}

// gobCustom lists the interfaces gob honours in place of a type's
// structure. A type implementing any of them, by value or by pointer,
// keeps its own encoding: it goes through gob.
var gobCustom = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

func customCoded(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	for _, i := range gobCustom {
		if t.Implements(i) || pt.Implements(i) {
			return true
		}
	}
	return false
}

// compilePlain compiles t's plain codec; false means t is not plain.
// outer holds the composite types t is nested in: a type met again
// inside itself is recursive, and not plain.
func compilePlain(t reflect.Type, outer []reflect.Type) (plainCodec, bool) {
	if slices.Contains(outer, t) || customCoded(t) {
		return plainCodec{}, false
	}
	switch t.Kind() {
	case reflect.Bool:
		return plainCodec{enc: encBool, dec: decBool, min: 1}, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return intCodec(wireSize(t)), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return uintCodec(wireSize(t)), true
	case reflect.Float32:
		return plainCodec{enc: encFloat32, dec: decFloat32, min: 4}, true
	case reflect.Float64:
		return plainCodec{enc: encFloat64, dec: decFloat64, min: 8}, true
	case reflect.String:
		return plainCodec{enc: encString, dec: decString, min: 1}, true
	case reflect.Slice:
		elem, ok := compilePlain(t.Elem(), append(outer, t))
		if !ok || elem.min == 0 {
			return plainCodec{}, false
		}
		if t.Elem().Kind() == reflect.Uint8 {
			return plainCodec{enc: encBytes, dec: decBytes, min: 1}, true
		}
		return sliceCodec(elem), true
	case reflect.Array:
		elem, ok := compilePlain(t.Elem(), append(outer, t))
		if !ok {
			return plainCodec{}, false
		}
		if t.Elem().Kind() == reflect.Uint8 {
			return byteArrayCodec(t.Len()), true
		}
		return arrayCodec(elem, t.Len()), true
	case reflect.Struct:
		fields := make([]plainCodec, t.NumField())
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return plainCodec{}, false
			}
			field, ok := compilePlain(f.Type, append(outer, t))
			if !ok {
				return plainCodec{}, false
			}
			fields[i] = field
		}
		return structCodec(fields), true
	}
	return plainCodec{}, false
}

// wireSize is the width of an int or uint kind on the wire.
func wireSize(t reflect.Type) int {
	if k := t.Kind(); k == reflect.Int || k == reflect.Uint {
		return 8
	}
	return int(t.Size())
}

// short reports a payload that ended inside a value.
func short(p []byte, want int) error {
	return fmt.Errorf("%w: value: %d bytes left, need %d", ErrBadFrame, len(p), want)
}

func appendWord(b []byte, u uint64, size int) []byte {
	switch size {
	case 1:
		return append(b, byte(u))
	case 2:
		return binary.BigEndian.AppendUint16(b, uint16(u))
	case 4:
		return binary.BigEndian.AppendUint32(b, uint32(u))
	}
	return binary.BigEndian.AppendUint64(b, u)
}

// readWord reads a size-byte word off the front of p.
func readWord(p []byte, size int) (uint64, []byte, error) {
	if len(p) < size {
		return 0, nil, short(p, size)
	}
	var u uint64
	switch size {
	case 1:
		u = uint64(p[0])
	case 2:
		u = uint64(binary.BigEndian.Uint16(p))
	case 4:
		u = uint64(binary.BigEndian.Uint32(p))
	default:
		u = binary.BigEndian.Uint64(p)
	}
	return u, p[size:], nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(v reflect.Value, p []byte) ([]byte, error) {
	if len(p) < 1 {
		return nil, short(p, 1)
	}
	if p[0] > 1 {
		return nil, fmt.Errorf("%w: value: bool byte %d", ErrBadFrame, p[0])
	}
	v.SetBool(p[0] == 1)
	return p[1:], nil
}

func intCodec(size int) plainCodec {
	shift := 64 - 8*size // sign-extends a size-byte word
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte { return appendWord(b, uint64(v.Int()), size) },
		dec: func(v reflect.Value, p []byte) ([]byte, error) {
			u, rest, err := readWord(p, size)
			if err != nil {
				return nil, err
			}
			x := int64(u<<shift) >> shift
			if v.OverflowInt(x) { // an int narrower than 64 bits
				return nil, fmt.Errorf("%w: value: %d out of range for %s", ErrBadFrame, x, v.Type())
			}
			v.SetInt(x)
			return rest, nil
		},
		min: size,
	}
}

func uintCodec(size int) plainCodec {
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte { return appendWord(b, v.Uint(), size) },
		dec: func(v reflect.Value, p []byte) ([]byte, error) {
			u, rest, err := readWord(p, size)
			if err != nil {
				return nil, err
			}
			if v.OverflowUint(u) {
				return nil, fmt.Errorf("%w: value: %d out of range for %s", ErrBadFrame, u, v.Type())
			}
			v.SetUint(u)
			return rest, nil
		},
		min: size,
	}
}

// A float32 is read and written as its bits: reflect's Float and
// SetFloat convert through float64, which may quiet a signalling NaN
// and so change the bits a value encodes to.
func encFloat32(b []byte, v reflect.Value) []byte {
	return binary.BigEndian.AppendUint32(b, *(*uint32)(v.Addr().UnsafePointer()))
}

func decFloat32(v reflect.Value, p []byte) ([]byte, error) {
	u, rest, err := readWord(p, 4)
	if err != nil {
		return nil, err
	}
	*(*uint32)(v.Addr().UnsafePointer()) = uint32(u)
	return rest, nil
}

func encFloat64(b []byte, v reflect.Value) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat64(v reflect.Value, p []byte) ([]byte, error) {
	u, rest, err := readWord(p, 8)
	if err != nil {
		return nil, err
	}
	v.SetFloat(math.Float64frombits(u))
	return rest, nil
}

// readLen reads a length prefix off the front of p: the shortest
// uvarint, counting values of at least min bytes each that the rest of
// p can hold, at each bytes a value. A corrupt length therefore never
// sizes an allocation beyond the payload.
func readLen(p []byte, each int) (int, []byte, error) {
	n, k := binary.Uvarint(p)
	switch {
	case k == 0:
		return 0, nil, short(p, 1)
	case k < 0 || k > 1 && p[k-1] == 0:
		return 0, nil, fmt.Errorf("%w: value: malformed length", ErrBadFrame)
	}
	rest := p[k:]
	if n > uint64(len(rest)/each) {
		return 0, nil, fmt.Errorf("%w: value: length %d exceeds the %d bytes left", ErrBadFrame, n, len(rest))
	}
	return int(n), rest, nil
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func decString(v reflect.Value, p []byte) ([]byte, error) {
	n, rest, err := readLen(p, 1)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		v.SetString(string(rest[:n]))
	}
	return rest[n:], nil
}

// encBytes and decBytes code a slice of a byte kind in one copy.
func encBytes(b []byte, v reflect.Value) []byte {
	bs := v.Bytes()
	return append(binary.AppendUvarint(b, uint64(len(bs))), bs...)
}

func decBytes(v reflect.Value, p []byte) ([]byte, error) {
	n, rest, err := readLen(p, 1)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		bs := make([]byte, n)
		copy(bs, rest)
		v.SetBytes(bs)
	}
	return rest[n:], nil
}

func byteArrayCodec(n int) plainCodec {
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte { return append(b, v.Bytes()...) },
		dec: func(v reflect.Value, p []byte) ([]byte, error) {
			if len(p) < n {
				return nil, short(p, n)
			}
			copy(v.Bytes(), p)
			return p[n:], nil
		},
		min: n,
	}
}

func sliceCodec(elem plainCodec) plainCodec {
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			b = binary.AppendUvarint(b, uint64(v.Len()))
			for i := range v.Len() {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(v reflect.Value, p []byte) ([]byte, error) {
			n, rest, err := readLen(p, elem.min)
			if err != nil || n == 0 {
				return rest, err
			}
			v.Grow(n)
			v.SetLen(n)
			for i := range n {
				if rest, err = elem.dec(v.Index(i), rest); err != nil {
					return nil, err
				}
			}
			return rest, nil
		},
		min: 1,
	}
}

func arrayCodec(elem plainCodec, n int) plainCodec {
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			for i := range n {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(v reflect.Value, p []byte) (rest []byte, err error) {
			rest = p
			for i := range n {
				if rest, err = elem.dec(v.Index(i), rest); err != nil {
					return nil, err
				}
			}
			return rest, nil
		},
		min: n * elem.min,
	}
}

func structCodec(fields []plainCodec) plainCodec {
	size := 0
	for _, f := range fields {
		size += f.min
	}
	return plainCodec{
		enc: func(b []byte, v reflect.Value) []byte {
			for i, f := range fields {
				b = f.enc(b, v.Field(i))
			}
			return b
		},
		dec: func(v reflect.Value, p []byte) (rest []byte, err error) {
			rest = p
			for i, f := range fields {
				if rest, err = f.dec(v.Field(i), rest); err != nil {
					return nil, err
				}
			}
			return rest, nil
		},
		min: size,
	}
}

// wordCodec is the codec of a plain T that is one bool, int, uint or
// float whose size in memory is its size on the wire: the value is
// copied as a machine word of that size, so it is never handed to
// reflect and stays off the heap. Its payload is exactly that word.
func wordCodec[T any](t reflect.Type) (valueCodec[T], bool) {
	switch t.Kind() {
	case reflect.Bool:
		return valueCodec[T]{put: putWord[T, uint8], get: getBool[T]}, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		if wireSize(t) != int(t.Size()) {
			return valueCodec[T]{}, false
		}
	default:
		return valueCodec[T]{}, false
	}
	switch t.Size() {
	case 1:
		return valueCodec[T]{put: putWord[T, uint8], get: getWord[T, uint8]}, true
	case 2:
		return valueCodec[T]{put: putWord[T, uint16], get: getWord[T, uint16]}, true
	case 4:
		return valueCodec[T]{put: putWord[T, uint32], get: getWord[T, uint32]}, true
	}
	return valueCodec[T]{put: putWord[T, uint64], get: getWord[T, uint64]}, true
}

// word is the unsigned integer a wordCodec value is copied as.
type word interface {
	uint8 | uint16 | uint32 | uint64
}

func putWord[T any, W word](b []byte, v T) []byte {
	return appendWord(b, uint64(*(*W)(unsafe.Pointer(&v))), int(unsafe.Sizeof(W(0))))
}

func getWord[T any, W word](payload []byte) (T, error) {
	var v T
	size := int(unsafe.Sizeof(W(0)))
	if len(payload) != size {
		return v, fmt.Errorf("%w: value: %d bytes, want %d", ErrBadFrame, len(payload), size)
	}
	u, _, _ := readWord(payload, size)
	*(*W)(unsafe.Pointer(&v)) = W(u)
	return v, nil
}

func getBool[T any](payload []byte) (T, error) {
	if len(payload) == 1 && payload[0] > 1 {
		var v T
		return v, fmt.Errorf("%w: value: bool byte %d", ErrBadFrame, payload[0])
	}
	return getWord[T, uint8](payload)
}
