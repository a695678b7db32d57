package dist

// FuzzDecodeFrame hammers the wire path's decode side: readFrame
// (version byte, length prefix, CRC) and parseEnvelope (the fixed
// binary layout under it). The workload and checkpoint layers have had
// fuzz targets since their PRs; the frame codec is the third parser of
// untrusted bytes in the repo — every replica server reads frames
// straight off a network a fault injector deliberately corrupts — and
// the contract under corruption is: a typed error (ErrBadFrame,
// ErrFrameTooLarge, ErrVersionMismatch) or an io error, never a panic,
// never an allocation or read beyond the declared bounds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"

	"github.com/softwarefaults/redundancy/internal/xrand"
)

func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames so mutations explore the near-valid space
	// where parser bugs live, and with one frame per envelope defect so
	// each rejection is exercised even without -fuzz.
	seed := func(e *envelope) []byte { return frameOf(f, appendEnvelope(nil, e)) }
	ints := codecFor[int]()
	traced := &envelope{
		ID: 7, Kind: kindCall, Payload: []byte("input"),
		TraceID: 0xdeadbeefcafe, SpanID: 0x1234,
	}
	f.Add(seed(&envelope{ID: 1, Kind: kindPing}))
	f.Add(seed(traced))
	f.Add(seed(&envelope{ID: 2, Kind: kindCall, Payload: ints.put(nil, -21)}))
	f.Add(seed(&envelope{ID: 2, Kind: kindReply, Payload: ints.put(nil, 42)}))
	f.Add(seed(&envelope{ID: 7, Kind: kindReply, Err: "variant failed"}))
	f.Add(seed(&envelope{ID: 8, Kind: kindAbort, Err: "no such type"}))
	f.Add(frameOf(f, []byte("hello"))) // shorter than the fixed envelope header
	f.Add(frameOf(f, nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})                        // old wire version 1
	f.Add([]byte{frameVersion, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // hostile length
	for _, old := range []byte{2, 3, 4} {                           // v3 and v4 share v5's envelope, not its value payloads
		f.Add(append([]byte{old}, seed(traced)[1:]...))
	}
	unknownKind := appendEnvelope(nil, traced)
	unknownKind[0] = kindAbort + 1
	f.Add(frameOf(f, unknownKind))
	longErr := appendEnvelope(nil, &envelope{ID: 9, Kind: kindReply, Err: "short"})
	binary.BigEndian.PutUint32(longErr[envelopeFixedSize-4:], 1<<20) // error length beyond the frame
	f.Add(frameOf(f, longErr))
	f.Add(frameOf(f, appendEnvelope(nil, traced)[:envelopeFixedSize-1])) // truncated fixed header

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		body, err := readFrame(r, nil)
		if err != nil {
			// Corruption must classify as a typed frame error or an io
			// error (truncated stream) — anything else is an escape.
			switch {
			case errors.Is(err, ErrBadFrame),
				errors.Is(err, ErrFrameTooLarge),
				errors.Is(err, ErrVersionMismatch),
				errors.Is(err, io.EOF),
				errors.Is(err, io.ErrUnexpectedEOF):
			default:
				t.Fatalf("readFrame(%d bytes): untyped error %v", len(data), err)
			}
			// A whole header of another version (a v2 or v3 peer's) is
			// named as such before its length or CRC is trusted.
			if len(data) >= frameHeaderSize && data[0] != frameVersion && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("version byte %d: got %v, want ErrVersionMismatch", data[0], err)
			}
			return
		}
		// No over-read: exactly the header and the declared length were
		// consumed, within the size cap.
		declared := int(binary.BigEndian.Uint32(data[1:5]))
		if len(body) != declared || len(data)-r.Len() != frameHeaderSize+declared {
			t.Fatalf("declared %d body bytes: readFrame returned %d and consumed %d of the stream",
				declared, len(body), len(data)-r.Len())
		}
		if len(body) > MaxFrameSize {
			t.Fatalf("readFrame returned %d bytes, above MaxFrameSize", len(body))
		}
		// A frame that round-trips must re-encode byte-identically —
		// the replay property campaigns rely on.
		if again := frameOf(t, body); !bytes.Equal(again, data[:len(again)]) {
			t.Fatal("accepted frame did not re-encode byte-identically")
		}
		// The envelope layer under the frame: a malformed body (truncated
		// fixed header, unknown kind, error length beyond the frame) must
		// yield ErrBadFrame, never panic; an accepted one stays inside the
		// body and re-encodes to it.
		env, err := parseEnvelope(body)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("parseEnvelope: untyped error %v", err)
			}
			return
		}
		if len(body) < envelopeFixedSize || env.Kind < kindCall || env.Kind > kindAbort {
			t.Fatalf("parseEnvelope accepted a %d-byte body of kind %d", len(body), env.Kind)
		}
		if envelopeFixedSize+len(env.Err)+len(env.Payload) != len(body) {
			t.Fatalf("envelope of a %d-byte body holds %d error and %d payload bytes",
				len(body), len(env.Err), len(env.Payload))
		}
		if again := appendEnvelope(nil, &env); !bytes.Equal(again, body) {
			t.Fatal("accepted envelope did not re-encode byte-identically")
		}
	})
}

// FuzzIntValue checks the fixed int payload against arbitrary bytes: a
// payload either decodes to an int that re-encodes to exactly the same
// bytes, or is rejected as ErrBadFrame — never a panic, never a second
// encoding of one value.
func FuzzIntValue(f *testing.F) {
	const intSize = 8
	vc := codecFor[int]()
	if vc.get == nil {
		f.Fatal("int values go through gob")
	}
	for _, v := range []int{0, 1, -1, 42, math.MaxInt, math.MinInt} {
		f.Add(vc.put(nil, v))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 42, 0}) // a trailing byte
	f.Add([]byte{0, 0, 0, 42})                // too short
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := vc.get(payload)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%d-byte payload: untyped error %v", len(payload), err)
			}
			if len(payload) == intSize && strconv.IntSize == 64 {
				t.Fatalf("8-byte payload %x rejected: %v", payload, err)
			}
			return
		}
		if again := vc.put(nil, v); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x decoded to %d, which encodes as %x", payload, v, again)
		}
	})
}

// FuzzPlainValue checks the compiled plain codec against arbitrary
// payloads, for a bulk {Seq, Data} value, a nested record of every
// plain kind, and one type per op shape besides: a padded struct, an
// array of structs, a float32 (whose signalling NaNs must keep their
// bits), slices of strings and of slices, and 8-byte ints decoded into
// 4-byte ones (narrowCodec, as int is on a 32-bit platform). A payload
// either decodes to a value that re-encodes to exactly the same bytes —
// the encoding is canonical — or is rejected as ErrBadFrame, never
// with a panic.
func FuzzPlainValue(f *testing.F) {
	blobs, records := codecFor[blob](), codecFor[record]()
	paddeds, rows := codecFor[padded](), codecFor[[2]padded]()
	floats, words, grids := codecFor[float32](), codecFor[[]string](), codecFor[[][]int16]()
	narrows := narrowCodec()
	rng := xrand.New(5)
	for range 4 {
		f.Add(randomPayload(blobs, rng))
		f.Add(randomPayload(records, rng))
		f.Add(randomPayload(paddeds, rng))
		f.Add(randomPayload(rows, rng))
		f.Add(randomPayload(floats, rng))
		f.Add(randomPayload(words, rng))
		f.Add(randomPayload(grids, rng))
		f.Add(randomPayload(narrows, rng))
	}
	f.Add(blobs.put(nil, blob{}))
	f.Add(records.put(nil, record{}))
	f.Add(floats.put(nil, math.Float32frombits(0x7f800001))) // a signalling NaN
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0})                   // an overlong length
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 1}) // a length beyond the payload
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // an int past 32 bits
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0}) // a uint past 32 bits
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkCanonical(t, blobs, payload)
		checkCanonical(t, records, payload)
		checkCanonical(t, paddeds, payload)
		checkCanonical(t, rows, payload)
		checkCanonical(t, floats, payload)
		checkCanonical(t, words, payload)
		checkCanonical(t, grids, payload)
		checkCanonical(t, narrows, payload)
	})
}

// randomPayload encodes a random T with vc.
func randomPayload[T any](vc valueCodec[T], rng *xrand.Rand) []byte {
	if vc.put == nil {
		panic(fmt.Sprintf("%T goes through gob", *new(T)))
	}
	var v T
	fillRandom(reflect.ValueOf(&v).Elem(), rng)
	return vc.put(nil, v)
}

// checkCanonical decodes payload with vc: it must fail with ErrBadFrame
// or re-encode to exactly payload.
func checkCanonical[T any](t *testing.T, vc valueCodec[T], payload []byte) {
	t.Helper()
	v, err := vc.get(payload)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%T from %d bytes: untyped error %v", v, len(payload), err)
		}
		return
	}
	if again := vc.put(nil, v); !bytes.Equal(again, payload) {
		t.Fatalf("%T payload %x decoded to %+v, which encodes as %x", v, payload, v, again)
	}
}
