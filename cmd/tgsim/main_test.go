package main

import (
	"os"
	"path/filepath"
	"testing"
)

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

// TestMachineUsageErrors: a machine is rejected the same way whether a
// -config file or the flags describe it, so both exit 2 (main exits 1
// only when the run itself fails). A config file that is missing or
// malformed is rejected too, and a good one is accepted.
func TestMachineUsageErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	big := write("big.json", `{"nodes": 2000, "topology": "dragonfly"}`)
	if _, err := machine(big, 2, 4, "star", "hib", 1); err == nil {
		t.Error("config file with 2000 nodes on a dragonfly: accepted, want a usage error")
	}
	if _, err := machine("", 2000, 4, "dragonfly", "hib", 1); err == nil {
		t.Error("-nodes 2000 -topology dragonfly: accepted, want a usage error")
	}
	for name, path := range map[string]string{
		"missing file":    filepath.Join(dir, "absent.json"),
		"bad JSON":        write("bad.json", `{"nodes": `),
		"unknown field":   write("field.json", `{"nodes": 2, "color": "red"}`),
		"bad topology":    write("topo.json", `{"nodes": 4, "topology": "bogus"}`),
		"zero sizing":     write("sizing.json", `{"nodes": 4, "sizing": {"HIBWriteQueue": 0}}`),
		"negative link":   write("link.json", `{"nodes": 4, "link": {"prop_delay_ns": -5, "word_time_ns": 140, "buf_packets": 4}}`),
		"zero link":       write("zlink.json", `{"nodes": 4, "link": {"prop_delay_ns": 0, "word_time_ns": 0, "buf_packets": 0}}`),
		"negative timing": write("timing.json", `{"nodes": 2, "timing": {"HIBService": -100000, "MPMRead": -100000}}`),
		"negative route":  write("route.json", `{"nodes": 2, "switch_route_delay_ns": -500}`),
	} {
		if _, err := machine(path, 2, 4, "star", "hib", 1); err == nil {
			t.Errorf("%s: accepted, want a usage error", name)
		}
	}
	good := write("good.json", `{"nodes": 4, "topology": "star", "seed": 7}`)
	cfg, err := machine(good, 2, 4, "chain", "hib", 1)
	if err != nil || cfg.Nodes != 4 || cfg.Seed != 7 {
		t.Errorf("good config: %+v, %v; want 4 nodes, seed 7", cfg.Nodes, err)
	}
	cfg, err = machine("", 3, 4, "chain", "main", 9)
	if err != nil || cfg.Nodes != 3 || cfg.Seed != 9 || cfg.Topology != "chain" {
		t.Errorf("flags: nodes %d seed %d topology %q, %v; want 3, 9, chain", cfg.Nodes, cfg.Seed, cfg.Topology, err)
	}
}
