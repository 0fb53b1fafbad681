package resolve

import (
	"testing"

	"entityid/internal/value"
)

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Coalesce: "coalesce", PreferR: "prefer-r", PreferS: "prefer-s",
		Strict: "strict", Strategy(9): "strategy(9)",
	}
	for st, w := range want {
		if got := st.String(); got != w {
			t.Errorf("Strategy(%d) = %q, want %q", int(st), got, w)
		}
	}
}

func TestResolveOneTable(t *testing.T) {
	a, b := value.String("a"), value.String("b")
	cases := []struct {
		st       Strategy
		rv, sv   value.Value
		want     value.Value
		conflict bool
	}{
		{Coalesce, value.Null, b, b, false},
		{Coalesce, a, value.Null, a, false},
		{Coalesce, a, a, a, false},
		{Coalesce, a, b, a, true},
		{PreferR, a, b, a, false},
		{PreferR, value.Null, b, b, false},
		{PreferS, a, b, b, false},
		{PreferS, a, value.Null, a, false},
		{Strict, a, b, a, true},
		{Strict, value.Null, value.Null, value.Null, false},
	}
	for _, c := range cases {
		got, conflict := resolveOne(c.st, c.rv, c.sv)
		if !value.Identical(got, c.want) || conflict != c.conflict {
			t.Errorf("resolveOne(%v, %v, %v) = %v, %t; want %v, %t",
				c.st, c.rv, c.sv, got, conflict, c.want, c.conflict)
		}
	}
}

func TestReduce(t *testing.T) {
	v := func(s string) value.Value { return value.String(s) }
	cases := []struct {
		name       string
		st         Strategy
		vals       []value.Value
		want       value.Value
		conflicted bool
		wantErr    bool
	}{
		{name: "coalesce-first-non-null", st: Coalesce, vals: []value.Value{value.Null, v("a"), value.Null}, want: v("a")},
		{name: "coalesce-agreement", st: Coalesce, vals: []value.Value{v("a"), v("a")}, want: v("a")},
		{name: "coalesce-conflict-keeps-first", st: Coalesce, vals: []value.Value{v("a"), v("b"), v("c")}, want: v("a"), conflicted: true},
		{name: "prefer-r-first", st: PreferR, vals: []value.Value{value.Null, v("a"), v("b")}, want: v("a")},
		{name: "prefer-s-last", st: PreferS, vals: []value.Value{v("a"), v("b"), value.Null}, want: v("b")},
		{name: "strict-fails", st: Strict, vals: []value.Value{v("a"), v("b")}, wantErr: true},
		{name: "empty", st: Coalesce, vals: nil, want: value.Null},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, conflicted, err := Reduce(tc.st, tc.vals...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !value.Identical(got, tc.want) || conflicted != tc.conflicted {
				t.Fatalf("Reduce = %v (conflicted %v), want %v (%v)", got, conflicted, tc.want, tc.conflicted)
			}
		})
	}
}
