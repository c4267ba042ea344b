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
		// Sizings the node memory, MMU or HIB cannot be built or run from.
		`{"nodes": 4, "sizing": {"HIBWriteQueue": 0}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 65536, "PageSize": 0, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 65536, "PageSize": 1000, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 0, "PageSize": 8192, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": -8192, "PageSize": 8192, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 12288, "PageSize": 8192, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 65536, "PageSize": 8192, "TLBEntries": 0, "Contexts": 1, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 65536, "PageSize": 8192, "TLBEntries": 8, "Contexts": 0, "HIBWriteQueue": 4}}`,
		`{"nodes": 4, "sizing": {"MemBytes": 65536, "PageSize": 8192, "TLBEntries": 8, "Contexts": 1, "HIBWriteQueue": 0}}`,
		// Links with a delay or buffer below one.
		`{"nodes": 2, "link": {"prop_delay_ns": -5, "word_time_ns": 140, "buf_packets": 4}}`,
		`{"nodes": 2, "link": {"prop_delay_ns": 0, "word_time_ns": 140, "buf_packets": 4}}`,
		`{"nodes": 2, "link": {"prop_delay_ns": 10, "word_time_ns": 0, "buf_packets": 4}}`,
		`{"nodes": 2, "link": {"prop_delay_ns": 10, "word_time_ns": 140, "buf_packets": 0}}`,
		`{"nodes": 2, "link": {"buf_packets": 0}}`,
		// A negative switch route delay.
		`{"nodes": 2, "switch_route_delay_ns": -500}`,
		// Negative timing constants.
		`{"nodes": 2, "timing": {"HIBService": -100000, "MPMRead": -100000}}`,
		`{"nodes": 2, "timing": {"CounterOverhead": -1}}`,
		// Unknown fields inside a block.
		`{"nodes": 2, "timing": {"CPUOps": 80}}`,
		`{"nodes": 2, "sizing": {"Pages": 8}}`,
		`{"nodes": 2, "link": {"prop_delay": 10}}`,
		`{"nodes": 2, "timing": []}`,
	}
	for _, in := range cases {
		if _, err := ReadConfig(strings.NewReader(in)); err == nil {
			t.Errorf("config %q accepted", in)
		}
	}
}

// TestReadConfigSmallSizing: the smallest sizing the checks accept and a
// one-nanosecond, one-packet link are accepted as given.
func TestReadConfigSmallSizing(t *testing.T) {
	cfg, err := ReadConfig(strings.NewReader(`{"nodes": 2,
		"sizing": {"MemBytes": 65536, "PageSize": 4096, "TLBEntries": 1, "Contexts": 1, "HIBWriteQueue": 1},
		"link": {"prop_delay_ns": 1, "word_time_ns": 1, "buf_packets": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sizing.MemBytes != 65536 || cfg.Sizing.PageSize != 4096 || cfg.Link.PropDelay != 1 || cfg.Link.BufPackets != 1 {
		t.Fatalf("sizing %+v link %+v", cfg.Sizing, cfg.Link)
	}
}

// TestReadConfigPartialBlocks: a timing, sizing or link block changes
// only the fields it names; the others keep the calibrated defaults, and
// an empty block is the defaults.
func TestReadConfigPartialBlocks(t *testing.T) {
	def := Default(4)
	cfg, err := ReadConfig(strings.NewReader(`{"nodes": 4,
		"timing": {"CPUOp": 123, "MPMWrite": 456},
		"sizing": {"HIBWriteQueue": 2},
		"link": {"buf_packets": 9}}`))
	if err != nil {
		t.Fatal(err)
	}
	wantT := def.Timing
	wantT.CPUOp, wantT.MPMWrite = 123, 456
	if cfg.Timing != wantT {
		t.Errorf("timing %+v, want %+v", cfg.Timing, wantT)
	}
	wantS := def.Sizing
	wantS.HIBWriteQueue = 2
	if cfg.Sizing != wantS {
		t.Errorf("sizing %+v, want %+v", cfg.Sizing, wantS)
	}
	wantL := def.Link
	wantL.BufPackets = 9
	if cfg.Link != wantL {
		t.Errorf("link %+v, want %+v", cfg.Link, wantL)
	}
	for _, in := range []string{
		`{"nodes": 4, "timing": {}, "sizing": {}, "link": {}}`,
		`{"nodes": 4, "timing": null, "sizing": null, "link": null}`,
	} {
		cfg, err := ReadConfig(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if cfg.Timing != def.Timing || cfg.Sizing != def.Sizing || cfg.Link != def.Link {
			t.Errorf("%s: timing, sizing or link differs from the defaults", in)
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
