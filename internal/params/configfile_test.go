package params

import (
	"fmt"
	"strings"
	"testing"

	"telegraphos/internal/topology"
)

func TestReadConfigDefaultsAndOverrides(t *testing.T) {
	in := `{
		"nodes": 6,
		"seed": 9,
		"placement": "main",
		"topology": "chain",
		"chain_per_switch": 3,
		"link": {"prop_delay_ns": 20, "word_time_ns": 100, "buf_packets": 8},
		"switch_route_delay_ns": 250
	}`
	cfg, err := ReadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 6 || cfg.Seed != 9 || cfg.Placement != SharedInMain {
		t.Fatalf("basic fields wrong: %+v", cfg)
	}
	if cfg.Topology != "chain" || cfg.ChainPerSwitch != 3 {
		t.Fatal("topology fields wrong")
	}
	if cfg.Link.PropDelay != 20 || cfg.Link.WordTime != 100 || cfg.Link.BufPackets != 8 {
		t.Fatalf("link config wrong: %+v", cfg.Link)
	}
	if cfg.Switch.RouteDelay != 250 {
		t.Fatal("switch delay wrong")
	}
	// Unspecified sections keep calibrated defaults.
	if cfg.Timing.TCWriteLatch != DefaultTiming().TCWriteLatch {
		t.Fatal("timing defaults not preserved")
	}
	if cfg.Sizing.HIBWriteQueue != DefaultSizing().HIBWriteQueue {
		t.Fatal("sizing defaults not preserved")
	}
}

func TestReadConfigMinimal(t *testing.T) {
	cfg, err := ReadConfig(strings.NewReader(`{"nodes": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 2 || cfg.Topology != "star" || cfg.Placement != SharedOnHIB {
		t.Fatalf("minimal config wrong: %+v", cfg)
	}
}

func TestReadConfigErrors(t *testing.T) {
	cases := []string{
		`{}`, // no nodes
		`{"nodes": 2, "placement": "floppy"}`,
		`{"nodes": 2, "topology": "torus"}`,
		`{"nodes": 4, "topology": "pair"}`,
		`{"nodes": 2000, "topology": "dragonfly"}`, // beyond the largest dragonfly class
		`{"nodes": 2000, "topology": "dragonfly-val"}`,
		`{"nodes": 2, "bogus_field": 1}`, // unknown fields rejected
		`{nodes: 2}`,                     // invalid JSON
	}
	for _, in := range cases {
		if _, err := ReadConfig(strings.NewReader(in)); err == nil {
			t.Errorf("config %q accepted", in)
		}
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig("/nonexistent/x.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadConfigTopologies: a config file may name every fabric in
// topology.Kinds.
func TestReadConfigTopologies(t *testing.T) {
	for _, name := range topology.Kinds {
		cfg, err := ReadConfig(strings.NewReader(fmt.Sprintf(`{"nodes": 2, "topology": %q}`, name)))
		if err != nil || cfg.Topology != name {
			t.Errorf("topology %q: got %q, %v", name, cfg.Topology, err)
		}
	}
}
