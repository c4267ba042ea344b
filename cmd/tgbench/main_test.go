package main

import "testing"

// TestCheckCounts: a shard count below one and a negative trace window
// are rejected instead of being clamped or ignored.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		shards, window int
		ok             bool
	}{
		{1, 0, true},
		{4, 4096, true},
		{0, 0, false},
		{-2, 0, false},
		{1, -5, false},
	} {
		err := checkCounts(c.shards, c.window)
		if (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok %v", c.shards, c.window, err, c.ok)
		}
	}
}
