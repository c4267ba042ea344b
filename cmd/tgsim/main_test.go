package main

import "testing"

// TestCheckCounts: fewer than one node or one node per switch, and a
// negative op count, are rejected before the cluster is built.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		nodes, perSwitch, ops int
		ok                    bool
	}{
		{2, 4, 1000, true},
		{1, 1, 0, true},
		{0, 4, 1000, false},
		{-3, 4, 1000, false},
		{4, 0, 1000, false},
		{4, -1, 1000, false},
		{4, 4, -5, false},
	} {
		err := checkCounts(c.nodes, c.perSwitch, c.ops)
		if (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d, %d) = %v, want ok %v", c.nodes, c.perSwitch, c.ops, err, c.ok)
		}
	}
}
