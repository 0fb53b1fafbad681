package ilfd

import (
	"fmt"
	"testing"
)

// BenchmarkClosure measures symbol-set closure (the membership test of
// the §5 axioms) over growing ILFD sets holding one depth-8 chain: the
// cost that matters is finding the chain among rules that never fire.
func BenchmarkClosure(b *testing.B) {
	for _, size := range []int{16, 128, 1024} {
		var fs Set
		for i := 0; i < 8; i++ {
			fs = append(fs, MustNew(
				Conditions{C(fmt.Sprintf("a%d", i), "1")},
				Conditions{C(fmt.Sprintf("a%d", i+1), "1")},
			))
		}
		for i := len(fs); i < size; i++ {
			fs = append(fs, MustNew(
				Conditions{C(fmt.Sprintf("p%d", i), "x")},
				Conditions{C(fmt.Sprintf("q%d", i), "y")},
			))
		}
		seed := Conditions{C("a0", "1")}
		b.Run(fmt.Sprintf("ilfds=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if clo := Closure(seed, fs); len(clo) < 9 {
					b.Fatalf("closure size %d", len(clo))
				}
			}
		})
	}
}
