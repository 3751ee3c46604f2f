package bitres

import "testing"

func TestGrantIncludesFill(t *testing.T) {
	r := New(1000)
	if g := r.Grant(700); g != 700 {
		t.Fatalf("empty reservoir grant = %d", g)
	}
	if err := r.Commit(700, 500); err != nil {
		t.Fatal(err)
	}
	if r.fill != 200 {
		t.Fatalf("fill = %d", r.fill)
	}
	if g := r.Grant(700); g != 900 {
		t.Fatalf("grant after donation = %d", g)
	}
}

func TestBorrowDrainsReservoir(t *testing.T) {
	r := New(1000)
	if err := r.Commit(700, 400); err != nil { // bank 300
		t.Fatal(err)
	}
	if err := r.Commit(700, 900); err != nil { // borrow 200
		t.Fatal(err)
	}
	if r.fill != 100 {
		t.Fatalf("fill = %d", r.fill)
	}
}

func TestCapacityCaps(t *testing.T) {
	r := New(250)
	if err := r.Commit(700, 100); err != nil {
		t.Fatal(err)
	}
	if r.fill != 250 {
		t.Fatalf("fill = %d, want capped 250", r.fill)
	}
}

func TestOverdraftRejected(t *testing.T) {
	r := New(1000)
	if err := r.Commit(700, 800); err == nil {
		t.Fatal("overdraft beyond grant accepted")
	}
	if r.fill != 0 {
		t.Fatalf("failed commit mutated fill: %d", r.fill)
	}
}

func TestNegativeInputs(t *testing.T) {
	r := New(-5)
	if r.capacity != 0 {
		t.Fatal("negative capacity not clamped")
	}
	if g := r.Grant(-10); g != 0 {
		t.Fatalf("negative nominal grant = %d", g)
	}
	if err := r.Commit(-1, 0); err == nil {
		t.Fatal("negative nominal accepted")
	}
	if err := r.Commit(0, -1); err == nil {
		t.Fatal("negative used accepted")
	}
}

func TestLongRunConservation(t *testing.T) {
	// Over many frames the reservoir never goes negative or over
	// capacity, and total granted ≥ total used.
	r := New(2000)
	used := []int{500, 900, 300, 1200, 100, 700, 650, 2000, 100, 400}
	for i, u := range used {
		grant := r.Grant(700)
		if u > grant {
			u = grant
		}
		if err := r.Commit(700, u); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if r.fill < 0 || r.fill > r.capacity {
			t.Fatalf("frame %d: fill %d out of range", i, r.fill)
		}
	}
}
