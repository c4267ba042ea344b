package main

import "testing"

// TestCheckCounts: a shard count below one is rejected instead of being
// clamped or ignored.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		shards int
		ok     bool
	}{
		{1, true},
		{4, true},
		{0, false},
		{-2, false},
	} {
		err := checkCounts(c.shards)
		if (err == nil) != c.ok {
			t.Errorf("checkCounts(%d) = %v, want ok %v", c.shards, err, c.ok)
		}
	}
}
