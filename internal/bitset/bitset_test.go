package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Any() || s.Count() != 0 || s.First() != -1 {
		t.Fatal("new set must be empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Test(0) || !s.Test(64) || !s.Test(129) || s.Test(1) {
		t.Fatal("Test after Set wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.First() != 0 {
		t.Fatalf("First = %d, want 0", s.First())
	}
	s.Clear(0)
	if s.Test(0) || s.Count() != 2 || s.First() != 64 {
		t.Fatal("Clear wrong")
	}
	var got []int32
	got = s.Members(got)
	if len(got) != 2 || got[0] != 64 || got[1] != 129 {
		t.Fatalf("Members = %v", got)
	}
	s.Reset()
	if s.Any() {
		t.Fatal("Reset must clear everything")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(200)
	b := New(200)
	for i := 0; i < 200; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	inter := a.Clone()
	inter.And(b)
	if inter.Count() != 34 { // multiples of 6 in [0,200): 0,6,...,198
		t.Fatalf("intersection count = %d, want 34", inter.Count())
	}
	if got := a.IntersectionCount(b); got != 34 {
		t.Fatalf("IntersectionCount = %d, want 34", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != a.Count()-34 {
		t.Fatalf("difference count = %d", diff.Count())
	}
	union := a.Clone()
	union.Or(b)
	if union.Count() != a.Count()+b.Count()-34 {
		t.Fatalf("union count = %d", union.Count())
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{3, 70, 128, 255}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(100)
	a.Set(5)
	b := New(100)
	b.Set(50)
	b.CopyFrom(a)
	if !b.Test(5) || b.Test(50) {
		t.Fatal("CopyFrom must overwrite")
	}
}

// Property: a bitset agrees with a map-based reference under a random
// operation sequence.
func TestAgainstMapModel(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := map[int]bool{}
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Set(i)
				model[i] = true
			} else {
				s.Clear(i)
				delete(model, i)
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Test(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRowsAndResize(t *testing.T) {
	rows := Rows(3, 70)
	for i := range rows {
		if rows[i].Len() != 70 || rows[i].Any() {
			t.Fatalf("row %d: len %d, any %v", i, rows[i].Len(), rows[i].Any())
		}
	}
	rows[0].Set(69)
	rows[1].Set(0)
	rows[1].Set(69)
	if rows[2].Any() || rows[0].Count() != 1 || rows[0].IntersectionCount(&rows[1]) != 1 {
		t.Fatal("rows share bits")
	}

	var s Set
	s.Resize(130)
	s.Set(129)
	if s.Len() != 130 || !s.Test(129) {
		t.Fatal("Resize from zero value")
	}
	s.Resize(64)
	if s.Len() != 64 || s.Any() {
		t.Fatal("shrinking Resize must clear")
	}
	s.Resize(128)
	if s.Any() {
		t.Fatal("Resize within capacity must clear")
	}
}
