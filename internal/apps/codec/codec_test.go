package codec

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(32).U16(7).U32(1 << 20).U64(1 << 40).F64(3.14159)
	r := NewReader(w.Bytes())
	if r.U16() != 7 || r.U32() != 1<<20 || r.U64() != 1<<40 || r.F64() != 3.14159 {
		t.Fatal("scalar round trip failed")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRoundTripComplex(t *testing.T) {
	vs := []complex128{1 + 2i, -3.5 + 0i, 0 - 7i}
	w := NewWriter(0)
	for _, v := range vs {
		w.C128(v)
	}
	r := NewReader(w.Bytes())
	for i := range vs {
		if got := r.C128(); got != vs[i] {
			t.Fatalf("element %d: %v vs %v", i, got, vs[i])
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestShortPayload(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("err = %v", r.Err())
	}
	// Subsequent reads stay zero without panicking.
	if r.U64() != 0 || r.F64() != 0 {
		t.Fatal("reads after error not zero")
	}
}

func TestShortComplexSlice(t *testing.T) {
	w := NewWriter(0).F64(1) // the real part only
	r := NewReader(w.Bytes())
	_ = r.C128()
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatal("half a complex value accepted")
	}
}

func TestEmptySlice(t *testing.T) {
	w := NewWriter(0).Raw(nil)
	r := NewReader(w.Bytes())
	if got := r.Raw(0); len(got) != 0 || r.Err() != nil {
		t.Fatalf("empty slice: %v, %v", got, r.Err())
	}
	if got := r.Rest(); len(got) != 0 || r.Err() != nil {
		t.Fatalf("rest of empty payload: %v, %v", got, r.Err())
	}
}

func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(a uint16, b uint32, c uint64, d float64) bool {
		w := NewWriter(0).U16(a).U32(b).U64(c).F64(d)
		r := NewReader(w.Bytes())
		ra, rb, rc, rd := r.U16(), r.U32(), r.U64(), r.F64()
		if r.Err() != nil {
			return false
		}
		// NaN != NaN: compare bit patterns via re-encoding.
		dOK := rd == d || (d != d && rd != rd)
		return ra == a && rb == b && rc == c && dOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
