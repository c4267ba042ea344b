package params

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

// fileConfig is the JSON form of a Config. Times are nanoseconds.
type fileConfig struct {
	Nodes          int     `json:"nodes"`
	Seed           int64   `json:"seed"`
	Placement      string  `json:"placement"` // "hib" or "main"
	Topology       string  `json:"topology"`
	ChainPerSwitch int     `json:"chain_per_switch,omitempty"`
	Timing         *Timing `json:"timing,omitempty"`
	Sizing         *Sizing `json:"sizing,omitempty"`
	Link           *struct {
		PropDelayNS int64 `json:"prop_delay_ns"`
		WordTimeNS  int64 `json:"word_time_ns"`
		BufPackets  int   `json:"buf_packets"`
	} `json:"link,omitempty"`
	SwitchRouteDelayNS int64 `json:"switch_route_delay_ns,omitempty"`
}

// ReadConfig parses a JSON machine description, filling unspecified
// fields from the calibrated defaults.
func ReadConfig(r io.Reader) (Config, error) {
	var fc fileConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("params: parsing config: %w", err)
	}
	if fc.Nodes < 1 {
		return Config{}, fmt.Errorf("params: config needs nodes >= 1, got %d", fc.Nodes)
	}
	cfg := Default(fc.Nodes)
	if fc.Seed != 0 {
		cfg.Seed = fc.Seed
	}
	switch fc.Placement {
	case "", "hib":
		cfg.Placement = SharedOnHIB
	case "main":
		cfg.Placement = SharedInMain
	default:
		return Config{}, fmt.Errorf("params: unknown placement %q (hib|main)", fc.Placement)
	}
	if fc.Topology != "" {
		cfg.Topology = fc.Topology
	}
	if fc.ChainPerSwitch > 0 {
		cfg.ChainPerSwitch = fc.ChainPerSwitch
	}
	if err := cfg.Fabric().Check(); err != nil {
		return Config{}, err
	}
	if fc.Timing != nil {
		cfg.Timing = *fc.Timing
	}
	if fc.Sizing != nil {
		cfg.Sizing = *fc.Sizing
	}
	if fc.Link != nil {
		cfg.Link.PropDelay = sim.Time(fc.Link.PropDelayNS)
		cfg.Link.WordTime = sim.Time(fc.Link.WordTimeNS)
		cfg.Link.BufPackets = fc.Link.BufPackets
	}
	if fc.SwitchRouteDelayNS > 0 {
		cfg.Switch.RouteDelay = sim.Time(fc.SwitchRouteDelayNS)
	}
	if err := checkSizing(cfg.Sizing); err != nil {
		return Config{}, err
	}
	if l := cfg.Link; l.PropDelay < 1 || l.WordTime < 1 || l.BufPackets < 1 {
		return Config{}, fmt.Errorf("params: link needs prop_delay_ns >= 1, word_time_ns >= 1 and buf_packets >= 1, got %d, %d and %d",
			l.PropDelay, l.WordTime, l.BufPackets)
	}
	return cfg, nil
}

// checkSizing rejects a sizing the node cannot be built or run from:
// the page size must be a positive multiple of the word size, the
// memory a positive multiple of the page size, and the MMU and the HIB
// need at least one TLB entry, one Telegraphos context and one
// write-queue slot (with none, every remote store waits forever).
func checkSizing(s Sizing) error {
	if s.PageSize <= 0 || s.PageSize%addrspace.WordSize != 0 {
		return fmt.Errorf("params: sizing needs PageSize a positive multiple of %d bytes, got %d", addrspace.WordSize, s.PageSize)
	}
	if s.MemBytes <= 0 || s.MemBytes%s.PageSize != 0 {
		return fmt.Errorf("params: sizing needs MemBytes a positive multiple of PageSize (%d), got %d", s.PageSize, s.MemBytes)
	}
	if s.TLBEntries < 1 || s.Contexts < 1 || s.HIBWriteQueue < 1 {
		return fmt.Errorf("params: sizing needs TLBEntries, Contexts and HIBWriteQueue >= 1, got %d, %d and %d",
			s.TLBEntries, s.Contexts, s.HIBWriteQueue)
	}
	return nil
}

// LoadConfig reads a JSON machine description from a file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ReadConfig(f)
}
