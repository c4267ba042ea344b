package main

import "testing"

// TestCheckCounts: negative counts and a shard count below one are
// rejected; zero keeps its "default" meaning.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		seeds       int64
		ops, shards int
		ok          bool
	}{
		{100, 0, 1, true},
		{0, 60, 2, true},
		{-5, 0, 1, false},
		{100, -5, 1, false},
		{100, 0, 0, false},
		{100, 0, -2, false},
	} {
		err := checkCounts(c.seeds, c.ops, c.shards)
		if (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d, %d) = %v, want ok %v", c.seeds, c.ops, c.shards, err, c.ok)
		}
	}
}
