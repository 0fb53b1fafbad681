package plan

import "math/rand"

// KeyPicker draws the index of the next tuple to read.
type KeyPicker func() int

// UniformKeys reads the first n tuples uniformly.
func UniformKeys(seed int64, n int) KeyPicker {
	r := rand.New(rand.NewSource(seed))
	return func() int { return r.Intn(n) }
}

// ZipfKeys reads the first n tuples with Zipf(s=1.1) popularity over a
// seeded order, so the popular keys are not the first ones inserted.
func ZipfKeys(seed int64, n int) KeyPicker {
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(n)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	return func() int { return order[z.Uint64()] }
}
