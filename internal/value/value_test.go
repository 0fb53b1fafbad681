package value

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindNull, "null"},
		{KindString, "string"},
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindBool, "bool"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value is not NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v, want KindNull", v.Kind())
	}
	if !Identical(v, Null) {
		t.Fatal("zero Value not identical to Null")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := String("wok").Str(); got != "wok" {
		t.Errorf("String.Str = %q", got)
	}
	if got := Int(42).IntVal(); got != 42 {
		t.Errorf("Int.IntVal = %d", got)
	}
	if got := Float(2.5).FloatVal(); got != 2.5 {
		t.Errorf("Float.FloatVal = %g", got)
	}
	if got := Bool(true).BoolVal(); got != true {
		t.Errorf("Bool.BoolVal = %t", got)
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Str on int value did not panic")
		}
	}()
	_ = Int(1).Str()
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{String("hunan"), "hunan"},
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqualNullNeverMatches(t *testing.T) {
	// The prototype's non_null_eq: NULL must not be equated with NULL.
	if Equal(Null, Null) {
		t.Error("Equal(Null, Null) = true, want false (non_null_eq semantics)")
	}
	if Equal(Null, String("x")) {
		t.Error("Equal(Null, x) = true")
	}
	if Equal(String("x"), Null) {
		t.Error("Equal(x, Null) = true")
	}
}

func TestEqualSameKind(t *testing.T) {
	if !Equal(String("a"), String("a")) {
		t.Error("equal strings not Equal")
	}
	if Equal(String("a"), String("b")) {
		t.Error("distinct strings Equal")
	}
	if !Equal(Int(3), Int(3)) {
		t.Error("equal ints not Equal")
	}
	if Equal(Int(3), Float(3)) {
		t.Error("int 3 Equal to float 3 across kinds")
	}
	if !Equal(Bool(true), Bool(true)) {
		t.Error("equal bools not Equal")
	}
	if !Equal(Float(0.25), Float(0.25)) {
		t.Error("equal floats not Equal")
	}
}

func TestIdenticalNullMatchesNull(t *testing.T) {
	if !Identical(Null, Null) {
		t.Error("Identical(Null, Null) = false, want true (storage equality)")
	}
	if Identical(Null, String("")) {
		t.Error("Identical(Null, empty string) = true")
	}
	if !Identical(Int(5), Int(5)) {
		t.Error("Identical(5,5) = false")
	}
	if Identical(Int(5), Int(6)) {
		t.Error("Identical(5,6) = true")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{
		Null,
		String("a"), String("b"),
		Int(-1), Int(0), Int(10),
		Float(-2.5), Float(3.25),
		Bool(false), Bool(true),
	}
	sorted := make([]Value, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return Less(sorted[i], sorted[j]) })
	// NULL sorts first.
	if !sorted[0].IsNull() {
		t.Errorf("first sorted value = %v, want null", sorted[0])
	}
	// Order is consistent: Compare(a,b) = -Compare(b,a).
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
	// Within-kind natural ordering.
	if Compare(Int(1), Int(2)) >= 0 {
		t.Error("Compare(1,2) >= 0")
	}
	if Compare(String("b"), String("a")) <= 0 {
		t.Error(`Compare("b","a") <= 0`)
	}
	if Compare(Float(1), Float(2)) >= 0 {
		t.Error("Compare(1.0,2.0) >= 0")
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("Compare(false,true) >= 0")
	}
}

func TestCompareTransitivityQuick(t *testing.T) {
	// Property: Compare induces a transitive order over int values.
	f := func(a, b, c int64) bool {
		va, vb, vc := Int(a), Int(b), Int(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualImpliesIdenticalQuick(t *testing.T) {
	f := func(s string) bool {
		a, b := String(s), String(s)
		return Equal(a, b) && Identical(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyUniqueAcrossKinds(t *testing.T) {
	vals := []Value{
		Null, String("1"), Int(1), Float(1), Bool(true),
		String("true"), String("null"), String(""),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision between %v (%v) and %v (%v): %q",
				prev, prev.Kind(), v, v.Kind(), k)
		}
		seen[k] = v
	}
}

func TestKeyAgreesWithIdenticalQuick(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return (va.Key() == vb.Key()) == Identical(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := String(a), String(b)
		return (va.Key() == vb.Key()) == Identical(va, vb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		text string
		k    Kind
		want Value
		ok   bool
	}{
		{"hunan", KindString, String("hunan"), true},
		{"42", KindInt, Int(42), true},
		{"-3", KindInt, Int(-3), true},
		{"2.5", KindFloat, Float(2.5), true},
		{"true", KindBool, Bool(true), true},
		{"null", KindString, Null, true},
		{"NULL", KindInt, Null, true},
		{"", KindFloat, Null, true},
		{"abc", KindInt, Null, false},
		{"abc", KindFloat, Null, false},
		{"abc", KindBool, Null, false},
		{"x", KindNull, Null, false},
		{"x", Kind(42), Null, false},
	}
	for _, c := range cases {
		got, err := Parse(c.text, c.k)
		if (err == nil) != c.ok {
			t.Errorf("Parse(%q, %v) error = %v, want ok=%t", c.text, c.k, err, c.ok)
			continue
		}
		if c.ok && !Identical(got, c.want) {
			t.Errorf("Parse(%q, %v) = %v, want %v", c.text, c.k, got, c.want)
		}
	}
}

func TestParseRoundTripQuick(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		got, err := Parse(v.String(), KindInt)
		return err == nil && Identical(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("notanint", KindInt)
}

func TestFloatEdgeCases(t *testing.T) {
	inf := Float(math.Inf(1))
	if !Identical(inf, Float(math.Inf(1))) {
		t.Error("+Inf not identical to itself")
	}
	if Compare(Float(math.Inf(-1)), inf) >= 0 {
		t.Error("-Inf does not sort before +Inf")
	}
	// NaN is never Equal, mirroring IEEE semantics through ==.
	nan := Float(math.NaN())
	if Equal(nan, nan) {
		t.Error("NaN Equal to NaN")
	}
}

func ExampleEqual() {
	fmt.Println(Equal(String("wok"), String("wok")))
	fmt.Println(Equal(Null, Null))
	// Output:
	// true
	// false
}

// TestKeyAgreesWithIdentical pins Key's hash-consistency contract:
// values Identical treats as one — notably the two float zeros — must
// share a key, or hash-based joins and key indexes disagree with the
// comparison semantics.
func TestKeyAgreesWithIdentical(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	if !Identical(negZero, Float(0)) {
		t.Fatal("-0.0 and +0.0 must be Identical")
	}
	if negZero.Key() != Float(0).Key() {
		t.Errorf("Key(-0.0) = %q, Key(+0.0) = %q; Identical values must share a key", negZero.Key(), Float(0).Key())
	}
	if Float(1).Key() == Float(-1).Key() {
		t.Error("distinct floats must keep distinct keys")
	}
}

// TestCanonIsEqualUnderEquals pins what lets a Value key a map: over
// values that equal themselves, == on the canonical forms is Equal —
// where == on the raw Values, a comparison of bits, tells the two float
// zeros apart. And the cell stays at four words.
func TestCanonIsEqualUnderEquals(t *testing.T) {
	vals := []Value{
		String(""), String("1"), Int(0), Int(1), Int(-1), Int(math.MinInt64), Bool(false), Bool(true),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(math.Inf(1)), Float(math.Inf(-1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.Canon() == b.Canon(), Equal(a, b); got != want {
				t.Errorf("Canon(%v) == Canon(%v) is %v, Equal says %v", a, b, got, want)
			}
		}
		if !Identical(a.Canon(), a) || a.Canon().Key() != a.Key() {
			t.Errorf("Canon(%v) = %v is another value", a, a.Canon())
		}
	}
	if nan := Float(math.NaN()); Equal(nan, nan) || !Null.Canon().IsNull() {
		t.Error("NaN must fail the Equal(v, v) test that guards a Canon lookup; NULL stays NULL")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("a Value is %d bytes, want 32", got)
	}
}
