package types

import (
	"testing"
	"testing/quick"
)

func TestKindWidths(t *testing.T) {
	cases := map[Kind]int{
		Bool: 1, Int32: 4, Date: 4, Int64: 8, Float64: 8, String: -1,
	}
	for k, w := range cases {
		if k.Width() != w {
			t.Errorf("%v width = %d, want %d", k, k.Width(), w)
		}
	}
	if String.Fixed() || !Int64.Fixed() {
		t.Fatal("Fixed() wrong")
	}
}

func TestKindPredicates(t *testing.T) {
	if !Int64.Numeric() || !Float64.Numeric() || Date.Numeric() || String.Numeric() {
		t.Fatal("Numeric() wrong")
	}
	for _, k := range []Kind{Int32, Int64, Float64, Date, String} {
		if !k.Comparable() {
			t.Errorf("%v should be comparable", k)
		}
	}
	if Bool.Comparable() || Ptr.Comparable() {
		t.Fatal("bool/ptr should not be comparable")
	}
}

func TestKindNames(t *testing.T) {
	if Int64.String() != "i64" || Date.CName() != "int32_t" {
		t.Fatal("kind names wrong")
	}
	if Invalid.String() != "invalid" {
		t.Fatal("invalid name")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{{Name: "a", Kind: Int64}, {Name: "b", Kind: String}}
	if s.IndexOf("a") != 0 || s.IndexOf("b") != 1 || s.IndexOf("c") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if s.MustIndexOf("b") != 1 {
		t.Fatal("MustIndexOf wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndexOf should panic on miss")
		}
	}()
	s.MustIndexOf("zzz")
}

func TestSchemaKinds(t *testing.T) {
	s := Schema{{Name: "a", Kind: Int64}, {Name: "b", Kind: String}}
	ks := s.Kinds()
	if len(ks) != 2 || ks[0] != Int64 || ks[1] != String {
		t.Fatal("Kinds wrong")
	}
}

func TestDates(t *testing.T) {
	if MkDate(1970, 1, 1) != 0 {
		t.Fatal("epoch wrong")
	}
	if MkDate(1970, 1, 2) != 1 {
		t.Fatal("day count wrong")
	}
	d := MkDate(1998, 9, 2)
	if DateString(d) != "1998-09-02" {
		t.Fatalf("DateString = %s", DateString(d))
	}
	p, err := ParseDate("1998-09-02")
	if err != nil || p != d {
		t.Fatalf("ParseDate: %v %v", p, err)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("ParseDate should reject garbage")
	}
	if MustParseDate("1995-06-17") != MkDate(1995, 6, 17) {
		t.Fatal("MustParseDate wrong")
	}
}

func TestDateRoundtripProperty(t *testing.T) {
	f := func(n uint16) bool {
		d := int32(n) // 0 .. ~179 years after epoch
		p, err := ParseDate(DateString(d))
		return err == nil && p == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDateOrderingMatchesCalendar(t *testing.T) {
	a := MkDate(1994, 12, 31)
	b := MkDate(1995, 1, 1)
	if !(a < b) {
		t.Fatal("date ordering broken")
	}
}
