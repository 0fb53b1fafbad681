// Package match is a fixture stand-in for the repo's matching package:
// a pair's matching result, which the commit path identifies a tuple
// against before the write-ahead append and grows, by Append, after.
package match

type Result struct{ n int }

func (r *Result) Identify(t int) ([]int, error) { return nil, nil }

func (r *Result) Append(pairs []int) error {
	r.n += len(pairs)
	return nil
}
