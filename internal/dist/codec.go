package dist

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
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
//
// The codec is a program compiled once from the type: one op per
// scalar, string, byte slice, byte array, array or slice in the value,
// each at its offset from the value's start, a struct flattened into
// its fields' ops. put and get run the program over a pointer to the
// value, reading and storing each field through its offset, so the
// value itself is never boxed and stays wherever its caller keeps it.
type plainCodec struct {
	ops []op
	// size is the type's size in memory, the stride of an element.
	size uintptr
	// min is the fewest bytes a value encodes to; a slice's elements
	// must have min > 0, which bounds a decoded length by the payload.
	min int
}

type opKind uint8

const (
	opBool opKind = iota
	opInt         // a signed int, sign-extended between mem and wire bytes
	opUint        // an unsigned int, or a float's bits
	opString
	opBytes     // a slice of a byte kind
	opByteArray // an array of n of a byte kind
	opArray     // an array of n elements coded by elem
	opSlice     // a slice of elements coded by elem
)

// op codes one field of a value: the one at off bytes from its start.
type op struct {
	kind opKind
	// mem and wire are an int's or uint's width in memory and on the
	// wire; they differ only for int and uint on a 32-bit platform.
	mem, wire uint8
	off       uintptr
	n         int
	elem      *plainCodec
	// typ is the field's type: an int's is named when a decoded value
	// does not fit, a slice's is grown to the decoded length.
	typ reflect.Type
}

// sliceHeader is the memory layout of every slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
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
	ops, least, ok := appendOps(nil, t, 0, outer)
	if !ok {
		return plainCodec{}, false
	}
	return plainCodec{ops: ops, size: t.Size(), min: least}, true
}

// appendOps appends to ops the ops of a t at offset off, and returns
// them with the fewest bytes a t encodes to; false means t is not
// plain.
func appendOps(ops []op, t reflect.Type, off uintptr, outer []reflect.Type) ([]op, int, bool) {
	if slices.Contains(outer, t) || customCoded(t) {
		return nil, 0, false
	}
	o := op{off: off, typ: t}
	least := 1 // a bool's byte, or a string's or slice's length
	switch t.Kind() {
	case reflect.Bool:
		o.kind = opBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		o.kind, o.mem, o.wire = opInt, uint8(t.Size()), wireSize(t)
		least = int(o.wire)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		o.kind, o.mem, o.wire = opUint, uint8(t.Size()), wireSize(t)
		least = int(o.wire)
	case reflect.Float32, reflect.Float64:
		// Copied as its bits: a conversion through float64 may quiet a
		// signalling NaN and so change the bits a value encodes to.
		o.kind, o.mem, o.wire = opUint, uint8(t.Size()), uint8(t.Size())
		least = int(o.wire)
	case reflect.String:
		o.kind = opString
	case reflect.Slice:
		elem, ok := compilePlain(t.Elem(), append(outer, t))
		if !ok || elem.min == 0 {
			return nil, 0, false
		}
		o.kind, o.elem = opSlice, &elem
		if t.Elem().Kind() == reflect.Uint8 {
			o.kind, o.elem = opBytes, nil
		}
	case reflect.Array:
		elem, ok := compilePlain(t.Elem(), append(outer, t))
		if !ok {
			return nil, 0, false
		}
		if t.Len() == 0 {
			return ops, 0, true
		}
		o.kind, o.n, o.elem = opArray, t.Len(), &elem
		if t.Elem().Kind() == reflect.Uint8 {
			o.kind, o.elem = opByteArray, nil
		}
		return append(ops, o), o.n * elem.min, true
	case reflect.Struct:
		least = 0
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, 0, false
			}
			var field int
			var ok bool
			if ops, field, ok = appendOps(ops, f.Type, off+f.Offset, append(outer, t)); !ok {
				return nil, 0, false
			}
			least += field
		}
		return ops, least, true
	default:
		return nil, 0, false
	}
	return append(ops, o), least, true
}

// wireSize is the width of an int or uint kind on the wire.
func wireSize(t reflect.Type) uint8 {
	if k := t.Kind(); k == reflect.Int || k == reflect.Uint {
		return 8
	}
	return uint8(t.Size())
}

// put appends the encoding of the value at v to b.
func (c *plainCodec) put(b []byte, v unsafe.Pointer) []byte {
	for i := range c.ops {
		o := &c.ops[i]
		p := unsafe.Add(v, o.off)
		switch o.kind {
		case opBool:
			if *(*bool)(p) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case opInt:
			b = appendWord(b, uint64(loadInt(p, o.mem)), o.wire)
		case opUint:
			b = appendWord(b, loadUint(p, o.mem), o.wire)
		case opString:
			s := *(*string)(p)
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		case opBytes:
			s := *(*[]byte)(p)
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		case opByteArray:
			b = append(b, unsafe.Slice((*byte)(p), o.n)...)
		case opArray:
			b = o.elem.putN(b, p, o.n)
		case opSlice:
			s := (*sliceHeader)(p)
			b = o.elem.putN(binary.AppendUvarint(b, uint64(s.len)), s.data, s.len)
		}
	}
	return b
}

// putN appends the n values laid out from v.
func (c *plainCodec) putN(b []byte, v unsafe.Pointer, n int) []byte {
	for i := range n {
		b = c.put(b, unsafe.Add(v, uintptr(i)*c.size))
	}
	return b
}

// get decodes a value from the front of b into v, a zero value, and
// returns what is left of b.
func (c *plainCodec) get(v unsafe.Pointer, b []byte) ([]byte, error) {
	for i := range c.ops {
		o := &c.ops[i]
		p := unsafe.Add(v, o.off)
		switch o.kind {
		case opBool:
			if len(b) < 1 {
				return nil, short(b, 1)
			}
			if b[0] > 1 {
				return nil, fmt.Errorf("%w: value: bool byte %d", ErrBadFrame, b[0])
			}
			*(*bool)(p) = b[0] == 1
			b = b[1:]
		case opInt, opUint:
			u, rest, err := readWord(b, o.wire)
			if err != nil {
				return nil, err
			}
			if u, err = o.fit(u); err != nil {
				return nil, err
			}
			storeWord(p, o.mem, u)
			b = rest
		case opString:
			n, rest, err := readLen(b, 1)
			if err != nil {
				return nil, err
			}
			if n > 0 {
				*(*string)(p) = string(rest[:n])
			}
			b = rest[n:]
		case opBytes:
			n, rest, err := readLen(b, 1)
			if err != nil {
				return nil, err
			}
			if n > 0 {
				s := make([]byte, n)
				copy(s, rest)
				*(*[]byte)(p) = s
			}
			b = rest[n:]
		case opByteArray:
			if len(b) < o.n {
				return nil, short(b, o.n)
			}
			copy(unsafe.Slice((*byte)(p), o.n), b)
			b = b[o.n:]
		case opArray:
			var err error
			if b, err = o.elem.getN(p, o.n, b); err != nil {
				return nil, err
			}
		case opSlice:
			n, rest, err := readLen(b, o.elem.min)
			if err != nil {
				return nil, err
			}
			if n > 0 {
				s := reflect.NewAt(o.typ, p).Elem()
				s.Grow(n)
				s.SetLen(n)
				if rest, err = o.elem.getN((*sliceHeader)(p).data, n, rest); err != nil {
					return nil, err
				}
			}
			b = rest
		}
	}
	return b, nil
}

// getN decodes n values from the front of b into the zero values laid
// out from v.
func (c *plainCodec) getN(v unsafe.Pointer, n int, b []byte) (rest []byte, err error) {
	rest = b
	for i := range n {
		if rest, err = c.get(unsafe.Add(v, uintptr(i)*c.size), rest); err != nil {
			return nil, err
		}
	}
	return rest, nil
}

// fit converts u, an int or uint read off the wire, to the 64-bit
// pattern of its value, and checks that the value fits o.mem bytes.
func (o *op) fit(u uint64) (uint64, error) {
	if o.kind == opInt {
		x := signExtend(u, o.wire)
		if o.mem < o.wire && signExtend(uint64(x), o.mem) != x {
			return 0, fmt.Errorf("%w: value: %d out of range for %s", ErrBadFrame, x, o.typ)
		}
		return uint64(x), nil
	}
	if o.mem < o.wire && u>>(8*uint(o.mem)) != 0 {
		return 0, fmt.Errorf("%w: value: %d out of range for %s", ErrBadFrame, u, o.typ)
	}
	return u, nil
}

// signExtend is the value of u's low size bytes as a signed int.
func signExtend(u uint64, size uint8) int64 {
	shift := 64 - 8*uint(size)
	return int64(u<<shift) >> shift
}

// short reports a payload that ended inside a value.
func short(p []byte, want int) error {
	return fmt.Errorf("%w: value: %d bytes left, need %d", ErrBadFrame, len(p), want)
}

func loadInt(p unsafe.Pointer, size uint8) int64 {
	switch size {
	case 1:
		return int64(*(*int8)(p))
	case 2:
		return int64(*(*int16)(p))
	case 4:
		return int64(*(*int32)(p))
	}
	return *(*int64)(p)
}

func loadUint(p unsafe.Pointer, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

// storeWord stores u's low size bytes at p.
func storeWord(p unsafe.Pointer, size uint8, u uint64) {
	switch size {
	case 1:
		*(*uint8)(p) = uint8(u)
	case 2:
		*(*uint16)(p) = uint16(u)
	case 4:
		*(*uint32)(p) = uint32(u)
	default:
		*(*uint64)(p) = u
	}
}

func appendWord(b []byte, u uint64, size uint8) []byte {
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
func readWord(p []byte, size uint8) (uint64, []byte, error) {
	if len(p) < int(size) {
		return 0, nil, short(p, int(size))
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

// readLen reads a length prefix off the front of p: the shortest
// uvarint, counting values of at least each bytes that the rest of p
// can hold. A corrupt length therefore never sizes an allocation
// beyond the payload.
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
