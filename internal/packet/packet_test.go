package packet

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func samplePacket() *Packet {
	return &Packet{
		ID:      12345,
		Src:     3,
		Dst:     12,
		Kind:    7,
		TTL:     9,
		Payload: []byte("partial sum P3"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || q.Src != p.Src || q.Dst != p.Dst || q.Kind != p.Kind || q.TTL != p.TTL {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q vs %q", q.Payload, p.Payload)
	}
}

func TestEncodeDecodeEmptyPayload(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dst: Broadcast, TTL: 1}
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dst != Broadcast || len(q.Payload) != 0 {
		t.Fatalf("bad decode: %+v", q)
	}
}

func TestEncodedLen(t *testing.T) {
	p := samplePacket()
	frame, _ := Encode(p)
	if len(frame) != EncodedLen(len(p.Payload)) {
		t.Fatalf("frame len %d, EncodedLen %d", len(frame), EncodedLen(len(p.Payload)))
	}
	if p.SizeBits() != 8*len(frame) {
		t.Fatalf("SizeBits %d, want %d", p.SizeBits(), 8*len(frame))
	}
}

func TestEncodeTooLarge(t *testing.T) {
	p := &Packet{Payload: make([]byte, MaxPayload+1)}
	if _, err := Encode(p); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, n := range []int{0, 1, headerLen - 1, headerLen, headerLen + 1} {
		if _, err := Decode(make([]byte, n)); !errors.Is(err, ErrTruncated) {
			// headerLen bytes + CRC of an empty-payload frame may decode
			// if its length field matches; build deliberately short input.
			if n < headerLen+crcLen {
				t.Fatalf("Decode(%d bytes) err = %v, want ErrTruncated", n, err)
			}
		}
	}
}

func TestDecodeLengthFieldMismatch(t *testing.T) {
	p := samplePacket()
	frame, _ := Encode(p)
	if _, err := Decode(frame[:len(frame)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTTLMutationPreservesCRC(t *testing.T) {
	// The whole point of excluding TTL from the checksum: a router may
	// decrement the TTL byte in place without re-encoding.
	p := samplePacket()
	frame, _ := Encode(p)
	frame[13]-- // decrement TTL in place
	q, err := Decode(frame)
	if err != nil {
		t.Fatalf("decode after TTL decrement: %v", err)
	}
	if q.TTL != p.TTL-1 {
		t.Fatalf("TTL = %d, want %d", q.TTL, p.TTL-1)
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := samplePacket()
	frame, _ := Encode(p)
	for i := range frame {
		if i == 13 {
			continue // TTL is not covered by the CRC by design
		}
		bad := make([]byte, len(frame))
		copy(bad, frame)
		bad[i] ^= 0x01
		q, err := Decode(bad)
		if err == nil && i != 14 && i != 15 {
			t.Fatalf("corruption at byte %d undetected: %+v", i, q)
		}
		// Bytes 14-15 are the length field; corrupting them may also
		// surface as ErrTruncated, which is fine — the frame is dropped
		// either way.
	}
}

func TestString(t *testing.T) {
	s := samplePacket().String()
	if !strings.Contains(s, "3->12") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: Encode/Decode round-trips arbitrary packets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(id uint64, src, dst uint16, kind, ttl uint8, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := &Packet{ID: MsgID(id), Src: TileID(src), Dst: TileID(dst), Kind: Kind(kind), TTL: ttl, Payload: payload}
		frame, err := Encode(p)
		if err != nil {
			return false
		}
		q, err := Decode(frame)
		if err != nil {
			return false
		}
		return q.ID == p.ID && q.Src == p.Src && q.Dst == p.Dst &&
			q.Kind == p.Kind && q.TTL == p.TTL && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Corrupt always changes the frame.
func TestQuickCorruptChangesFrame(t *testing.T) {
	r := rng.New(99)
	f := func(payload []byte, modelSel uint8) bool {
		p := &Packet{ID: 1, Payload: payload}
		frame, err := Encode(p)
		if err != nil {
			return true // oversized payloads are not Corrupt's problem
		}
		orig := make([]byte, len(frame))
		copy(orig, frame)
		model := ErrorModel(int(modelSel) % 3)
		Corrupt(model, frame, 0.5, r)
		return !bytes.Equal(orig, frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomErrorVector is ErrorModel's zero value, the random error vector
// model.
const randomErrorVector ErrorModel = 0

func TestCorruptedFrameRejectedByCRC(t *testing.T) {
	r := rng.New(7)
	rejected := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		p := &Packet{ID: MsgID(i), Src: 1, Dst: 2, TTL: 5, Payload: []byte("abcdefgh")}
		frame, _ := Encode(p)
		Corrupt(randomErrorVector, frame, 1, r)
		if _, err := Decode(frame); err != nil {
			rejected++
		}
	}
	// CRC-16 misses a random error vector with probability ~2^-16.
	if rejected < trials-3 {
		t.Fatalf("only %d/%d corrupted frames rejected", rejected, trials)
	}
}

func TestSingleBitUpsetAlwaysRejected(t *testing.T) {
	r := rng.New(8)
	for i := 0; i < 2000; i++ {
		p := &Packet{ID: MsgID(i), Payload: []byte{1, 2, 3, 4}}
		frame, _ := Encode(p)
		Corrupt(SingleBitError, frame, 0, r)
		_, err := Decode(frame)
		if err == nil {
			// The flipped bit may be the TTL byte, which is legitimately
			// not covered. Verify that's the only escape hatch.
			q, _ := Decode(frame)
			if q != nil && q.TTL == p.TTL {
				t.Fatal("single-bit upset outside TTL escaped the CRC")
			}
		}
	}
}

func TestPbFromUpsetInversion(t *testing.T) {
	for _, pupset := range []float64{0.01, 0.1, 0.5, 0.9} {
		for _, nbits := range []int{8, 64, 256, 1024} {
			pb := PbFromUpset(pupset, nbits)
			back := 1 - math.Pow(1-pb, float64(nbits)) // p_upset = 1 - (1 - p_b)^n
			if math.Abs(back-pupset) > 1e-9 {
				t.Errorf("PbFromUpset(%v,%d): round-trip %v", pupset, nbits, back)
			}
		}
	}
}

func TestPbFromUpsetEdges(t *testing.T) {
	if PbFromUpset(0, 64) != 0 {
		t.Error("PbFromUpset(0) != 0")
	}
	if PbFromUpset(1, 64) != 1 {
		t.Error("PbFromUpset(1) != 1")
	}
	if PbFromUpset(0.5, 0) != 0 {
		t.Error("PbFromUpset with 0 bits != 0")
	}
}

func TestCorruptEmptyFrameNoop(t *testing.T) {
	r := rng.New(1)
	Corrupt(randomErrorVector, nil, 0.5, r) // must not panic
}

func BenchmarkEncode(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	frame, _ := Encode(samplePacket())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEncodeToMatchesEncode(t *testing.T) {
	p := samplePacket()
	want, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, EncodedLen(len(p.Payload)))
	if err := EncodeTo(dst, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("EncodeTo produced a different frame:\n  %x\n  %x", dst, want)
	}
}

func TestEncodeToBadBuffer(t *testing.T) {
	p := samplePacket()
	for _, n := range []int{0, EncodedLen(len(p.Payload)) - 1, EncodedLen(len(p.Payload)) + 1} {
		if err := EncodeTo(make([]byte, n), p); !errors.Is(err, ErrBadFrameLen) {
			t.Fatalf("EncodeTo(len %d) = %v, want ErrBadFrameLen", n, err)
		}
	}
	big := &Packet{ID: 1, Payload: make([]byte, MaxPayload+1)}
	if err := EncodeTo(make([]byte, 8), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: %v, want ErrTooLarge", err)
	}
}

func TestDecodeIntoAliasesFrame(t *testing.T) {
	p := samplePacket()
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := DecodeInto(&q, frame); err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || q.Src != p.Src || q.Dst != p.Dst || q.Kind != p.Kind || q.TTL != p.TTL {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q vs %q", q.Payload, p.Payload)
	}
	// The zero-copy contract: the payload aliases the frame's bytes.
	frame[headerLen] ^= 0xff
	if bytes.Equal(q.Payload, p.Payload) {
		t.Fatal("DecodeInto copied the payload; it must alias the frame")
	}
	// And appending to it must not clobber the frame's CRC bytes.
	if cap(q.Payload) != len(q.Payload) {
		t.Fatalf("aliased payload has spare capacity %d past len %d",
			cap(q.Payload), len(q.Payload))
	}
}

func TestDecodeIntoEmptyPayload(t *testing.T) {
	frame, err := Encode(&Packet{ID: 1, Dst: Broadcast, TTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := Packet{Payload: []byte("stale")}
	if err := DecodeInto(&q, frame); err != nil {
		t.Fatal(err)
	}
	if q.Payload != nil {
		t.Fatalf("Payload = %q, want nil (stale value must be cleared)", q.Payload)
	}
}

func TestDecodeIntoRejectsCorruption(t *testing.T) {
	frame, err := Encode(samplePacket())
	if err != nil {
		t.Fatal(err)
	}
	frame[2] ^= 0x40
	var q Packet
	if err := DecodeInto(&q, frame); !errors.Is(err, ErrCRC) {
		t.Fatalf("corrupted frame: %v, want ErrCRC", err)
	}
	if err := DecodeInto(&q, frame[:headerLen]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated frame: %v, want ErrTruncated", err)
	}
}
