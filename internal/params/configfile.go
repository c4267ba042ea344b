package params

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

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
		if err := CheckTopology(fc.Topology, fc.Nodes); err != nil {
			return Config{}, err
		}
		cfg.Topology = fc.Topology
	}
	if fc.ChainPerSwitch > 0 {
		cfg.ChainPerSwitch = fc.ChainPerSwitch
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
	return cfg, nil
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
