package dist

// Tests of the plain value codec (codec.go): which types it takes, and
// that what it decodes is what gob would have. FuzzPlainValue
// (fuzz_test.go) checks it against arbitrary payloads.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/xrand"
)

// blob is the shape of a bulk RPC value: a sequence number and 4 KiB
// or so of data.
type blob struct {
	Seq  uint64
	Data []byte
}

// record is a nested plain type with every plain kind in it.
type record struct {
	Name  string
	On    bool
	Small int8
	Mid   int16
	Word  uint32
	N     int
	U     uint
	Scale float32
	Ratio float64
	Key   [4]byte
	Grid  [2][3]int16
	Tags  []string
	Spots []point
	Inner blob
}

// padded has padding between its fields and after the last, which
// the codec must step over by the fields' offsets.
type padded struct {
	A int8
	B int64
	C int16
}

// narrow is a struct of 4-byte ints; narrowCodec codes it the way int
// and uint are coded on a 32-bit platform, 8 bytes on the wire.
type narrow struct {
	N int32
	U uint32
}

// narrowCodec is narrow's codec with every int widened to 8 bytes on
// the wire, so that a value off the wire may not fit in memory.
func narrowCodec() valueCodec[narrow] {
	c, ok := compilePlain(reflect.TypeFor[narrow](), nil)
	if !ok {
		panic("narrow is not plain")
	}
	for i := range c.ops {
		c.ops[i].wire = 8
	}
	c.min = 16
	return plainValues[narrow](&c)
}

// Types gob must keep: each implements one of the interfaces gob
// honours, is recursive, or has a field that is not plain.
type (
	binaryCoded int
	textCoded   struct{ S string }
	tree        struct{ Kids []tree }
	ping        struct{ Pongs []pong }
	pong        struct{ Pings []ping }
	hidden      struct{ X, y int }
	linked      struct{ Next *linked }
)

func (binaryCoded) MarshalBinary() ([]byte, error) { return nil, nil }
func (*binaryCoded) UnmarshalBinary([]byte) error  { return nil }
func (textCoded) MarshalText() ([]byte, error)     { return nil, nil }
func (*textCoded) UnmarshalText(b []byte) error    { return nil }

func TestPlainClassification(t *testing.T) {
	type celsius int
	for _, tc := range []struct {
		typ   reflect.Type
		plain bool
	}{
		{reflect.TypeFor[int](), true},
		{reflect.TypeFor[celsius](), true},
		{reflect.TypeFor[time.Duration](), true},
		{reflect.TypeFor[bool](), true},
		{reflect.TypeFor[int8](), true},
		{reflect.TypeFor[uint16](), true},
		{reflect.TypeFor[float32](), true},
		{reflect.TypeFor[float64](), true},
		{reflect.TypeFor[string](), true},
		{reflect.TypeFor[[]byte](), true},
		{reflect.TypeFor[[4]byte](), true},
		{reflect.TypeFor[[3]int](), true},
		{reflect.TypeFor[[][]string](), true},
		{reflect.TypeFor[point](), true},
		{reflect.TypeFor[blob](), true},
		{reflect.TypeFor[record](), true},
		{reflect.TypeFor[struct{}](), true},

		{reflect.TypeFor[picky](), false},       // a GobEncoder
		{reflect.TypeFor[binaryCoded](), false}, // a BinaryMarshaler
		{reflect.TypeFor[textCoded](), false},   // a TextMarshaler
		{reflect.TypeFor[time.Time](), false},   // all three
		{reflect.TypeFor[[]picky](), false},
		{reflect.TypeFor[struct{ P picky }](), false},
		{reflect.TypeFor[hidden](), false}, // an unexported field
		{reflect.TypeFor[*int](), false},
		{reflect.TypeFor[linked](), false},
		{reflect.TypeFor[map[string]int](), false},
		{reflect.TypeFor[struct{ M map[int]bool }](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[[]any](), false},
		{reflect.TypeFor[tree](), false}, // recursive through a slice
		{reflect.TypeFor[ping](), false}, // recursive through another type
		{reflect.TypeFor[complex128](), false},
		{reflect.TypeFor[uintptr](), false},
		{reflect.TypeFor[[]struct{}](), false}, // its length would bound nothing
		{reflect.TypeFor[chan int](), false},
	} {
		if _, ok := compilePlain(tc.typ, nil); ok != tc.plain {
			t.Errorf("%v: plain = %v, want %v", tc.typ, ok, tc.plain)
		}
	}
	if codecFor[point]().put == nil || codecFor[picky]().put != nil || codecFor[tree]().get != nil {
		t.Error("codecFor disagrees with compilePlain")
	}
}

// TestPlainMatchesGob is a seeded differential test: for each plain
// type, a value round-tripped through the plain codec equals the value
// itself and the same value round-tripped through gob, floats compared
// by their bits, and its payload decodes back to itself. gob omits a
// struct field equal to zero, -0 included, so against gob the two
// zeros count as one.
func TestPlainMatchesGob(t *testing.T) {
	rng := xrand.New(38)
	matchesGob[blob](t, rng)
	matchesGob[record](t, rng)
	matchesGob[point](t, rng)
	matchesGob[padded](t, rng)
	matchesGob[[3]padded](t, rng)
	matchesGob[[2]blob](t, rng)
	matchesGob[[3]float64](t, rng)
	matchesGob[[]string](t, rng)
	matchesGob[[][]string](t, rng)
	matchesGob[[][]int16](t, rng)
	matchesGob[[]padded](t, rng)
	matchesGob[string](t, rng)
	matchesGob[bool](t, rng)
	matchesGob[float64](t, rng)
	matchesGob[float32](t, rng)
	matchesGob[int16](t, rng)
	matchesGob[int](t, rng)
	t.Run("narrow ints", func(t *testing.T) { narrowMatchesGob(t, rng) })
}

// narrowMatchesGob decodes 8-byte ints into 4-byte ones with
// narrowCodec and with gob: a value that fits must decode to itself
// under both, one that does not must be ErrBadFrame where gob fails.
func narrowMatchesGob(t *testing.T, rng *xrand.Rand) {
	type wide struct {
		N int64
		U uint64
	}
	wides, narrows := codecFor[wide](), narrowCodec()
	edges := []int64{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt64, math.MinInt64}
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int64(rng.Uint64()) >> rng.Intn(64)
	}
	for i := range 1000 {
		w := wide{N: pick(), U: uint64(pick())}
		fits := w.N == int64(int32(w.N)) && w.U == uint64(uint32(w.U))
		got, err := narrows.get(wides.put(nil, w))
		var buf bytes.Buffer
		var want narrow
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatalf("value %d: gob encode: %v", i, err)
		}
		gobErr := gob.NewDecoder(&buf).Decode(&want)
		switch {
		case fits && (err != nil || got != narrow{int32(w.N), uint32(w.U)}):
			t.Fatalf("value %d: %+v decodes as %+v, %v", i, w, got, err)
		case !fits && !errors.Is(err, ErrBadFrame):
			t.Fatalf("value %d: %+v out of range decodes as %+v, %v; want ErrBadFrame", i, w, got, err)
		case (err == nil) != (gobErr == nil) || err == nil && got != want:
			t.Fatalf("value %d: %+v decodes as %+v, %v; gob %+v, %v", i, w, got, err, want, gobErr)
		}
	}
}

func matchesGob[T any](t *testing.T, rng *xrand.Rand) {
	t.Run(reflect.TypeFor[T]().String(), func(t *testing.T) {
		vc := codecFor[T]()
		if vc.put == nil {
			t.Fatal("goes through gob")
		}
		for i := range 300 {
			var v T
			fillRandom(reflect.ValueOf(&v).Elem(), rng)
			payload := vc.put(nil, v)
			got, err := vc.get(payload)
			if err != nil {
				t.Fatalf("value %d: %+v does not decode: %v", i, v, err)
			}
			var buf bytes.Buffer
			var want T
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatalf("value %d: gob encode: %v", i, err)
			}
			if err := gob.NewDecoder(&buf).Decode(&want); err != nil {
				t.Fatalf("value %d: gob decode: %v", i, err)
			}
			if !sameBits(reflect.ValueOf(&got).Elem(), reflect.ValueOf(&v).Elem(), true) {
				t.Fatalf("value %d: %+v decodes as %+v", i, v, got)
			}
			if !sameBits(reflect.ValueOf(&got).Elem(), reflect.ValueOf(&want).Elem(), false) {
				t.Fatalf("value %d: plain decodes %+v, gob %+v", i, got, want)
			}
			if again := vc.put(nil, got); !bytes.Equal(again, payload) {
				t.Fatalf("value %d: payload %x decodes to a value that encodes as %x", i, payload, again)
			}
		}
	})
}

// sameBits is reflect.DeepEqual over two addressable values with
// floats compared by their bits, so a NaN equals itself. Unless exact,
// it forgives what gob does to a float: -0 equals 0, since gob omits a
// zero field, and a float32 NaN equals any other, since gob converts a
// float32 through float64, which quiets a signalling NaN.
func sameBits(a, b reflect.Value, exact bool) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if !exact && (x == 0 && y == 0 || a.Kind() == reflect.Float32 && math.IsNaN(x) && math.IsNaN(y)) {
			return true
		}
		return floatBits(a) == floatBits(b)
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i), exact) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i), exact) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// floatBits is the bits of v, an addressable float, read from memory:
// v.Float converts a float32 through float64, which may quiet a NaN.
func floatBits(v reflect.Value) uint64 {
	if v.Kind() == reflect.Float32 {
		return uint64(*(*uint32)(v.Addr().UnsafePointer()))
	}
	return math.Float64bits(v.Float())
}

// fillRandom sets v, a settable zero value of a plain type, to a
// random value: edge-case floats and lengths (empty, and long enough
// for a two-byte length prefix) come up often.
func fillRandom(v reflect.Value, rng *xrand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> rng.Intn(64))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float32, reflect.Float64:
		specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat32}
		if v.Kind() == reflect.Float32 && rng.Intn(6) == 0 {
			// A signalling NaN: the quiet bit clear, the payload not
			// zero, either sign. Only its bits can set it.
			bits := 0x7f800000 | uint32(1+rng.Intn(0x3fffff)) | uint32(rng.Intn(2))<<31
			*(*uint32)(v.Addr().UnsafePointer()) = bits
		} else if rng.Intn(3) == 0 {
			v.SetFloat(specials[rng.Intn(len(specials))])
		} else {
			v.SetFloat(rng.NormFloat64() * 1e6)
		}
	case reflect.String:
		b := make([]byte, randomLen(rng))
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		v.SetString(string(b))
	case reflect.Slice:
		if n := randomLen(rng); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fillRandom(v.Index(i), rng)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			fillRandom(v.Field(i), rng)
		}
	default:
		panic("fillRandom: not a plain kind: " + v.Kind().String())
	}
}

// randomLen is a string or slice length: zero a quarter of the time,
// past a one-byte length prefix an eighth of it.
func randomLen(rng *xrand.Rand) int {
	switch rng.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return 128 + rng.Intn(200)
	}
	return 1 + rng.Intn(6)
}

// TestPlainCodecAllocs: the plain codec reads and writes a value
// through its fields' offsets, so the value itself never escapes.
// Encoding into a buffer with room allocates nothing; decoding
// allocates only the copies of the value's strings and slices — one
// for a blob's Data, none for a point or an int.
func TestPlainCodecAllocs(t *testing.T) {
	b := blob{Seq: 9, Data: make([]byte, 4096)}
	p := point{X: 1, Y: -1}
	blobs, points, ints := codecFor[blob](), codecFor[point](), codecFor[int]()
	buf := make([]byte, 0, 8192)
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"put blob", 0, func() { buf = blobs.put(buf[:0], b) }},
		{"put point", 0, func() { buf = points.put(buf[:0], p) }},
		{"put int", 0, func() { buf = ints.put(buf[:0], 42) }},
		{"get blob", 1, func() { b, _ = blobs.get(blobs.put(buf[:0], b)) }},
		{"get point", 0, func() { p, _ = points.get(points.put(buf[:0], p)) }},
		{"get int", 0, func() { _, _ = ints.get(ints.put(buf[:0], 42)) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	if b.Seq != 9 || len(b.Data) != 4096 || p != (point{1, -1}) {
		t.Fatalf("round trips changed the values: seq %d, %d bytes, %+v", b.Seq, len(b.Data), p)
	}
}
