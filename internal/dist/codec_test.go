package dist

// Tests of the plain value codec (codec.go): which types it takes, and
// that what it decodes is what gob would have. FuzzPlainValue
// (fuzz_test.go) checks it against arbitrary payloads.

import (
	"bytes"
	"encoding/gob"
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
	matchesGob[[3]float64](t, rng)
	matchesGob[[]string](t, rng)
	matchesGob[string](t, rng)
	matchesGob[bool](t, rng)
	matchesGob[float64](t, rng)
	matchesGob[float32](t, rng)
	matchesGob[int16](t, rng)
	matchesGob[int](t, rng)
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
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(v), true) {
				t.Fatalf("value %d: %+v decodes as %+v", i, v, got)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want), false) {
				t.Fatalf("value %d: plain decodes %+v, gob %+v", i, got, want)
			}
			if again := vc.put(nil, got); !bytes.Equal(again, payload) {
				t.Fatalf("value %d: payload %x decodes to a value that encodes as %x", i, payload, again)
			}
		}
	})
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// a NaN equals itself; -0 differs from 0 if signedZero.
func sameBits(a, b reflect.Value, signedZero bool) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if x == 0 && y == 0 && !signedZero {
			return true
		}
		return math.Float64bits(x) == math.Float64bits(y)
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
			if !sameBits(a.Index(i), b.Index(i), signedZero) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i), signedZero) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
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
		if rng.Intn(3) == 0 {
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
