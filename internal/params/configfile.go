package params

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

// fileConfig is the JSON form of a Config. Times are nanoseconds. The
// timing, sizing and link blocks stay raw until the node count is known:
// each is then decoded over the calibrated defaults (a Timing, a Sizing
// and a fileLink), so a field a block omits keeps its default.
type fileConfig struct {
	Nodes              int             `json:"nodes"`
	Seed               int64           `json:"seed"`
	Placement          string          `json:"placement"` // "hib" or "main"
	Topology           string          `json:"topology"`
	ChainPerSwitch     int             `json:"chain_per_switch,omitempty"`
	Timing             json.RawMessage `json:"timing,omitempty"`
	Sizing             json.RawMessage `json:"sizing,omitempty"`
	Link               json.RawMessage `json:"link,omitempty"`
	SwitchRouteDelayNS int64           `json:"switch_route_delay_ns,omitempty"`
}

// fileLink is the JSON form of the link block.
type fileLink struct {
	PropDelayNS int64 `json:"prop_delay_ns"`
	WordTimeNS  int64 `json:"word_time_ns"`
	BufPackets  int   `json:"buf_packets"`
}

// decodeOver decodes the config block raw (absent when nil) over *dst,
// which holds the defaults, rejecting unknown fields.
func decodeOver(block string, raw json.RawMessage, dst any) error {
	if raw == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("params: parsing config %s block: %w", block, err)
	}
	return nil
}

// ReadConfig parses a JSON machine description, filling unspecified
// fields from the calibrated defaults — inside the timing, sizing and
// link blocks too, so a block need only name the fields it changes.
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
	if err := decodeOver("timing", fc.Timing, &cfg.Timing); err != nil {
		return Config{}, err
	}
	if err := decodeOver("sizing", fc.Sizing, &cfg.Sizing); err != nil {
		return Config{}, err
	}
	fl := fileLink{PropDelayNS: int64(cfg.Link.PropDelay), WordTimeNS: int64(cfg.Link.WordTime), BufPackets: cfg.Link.BufPackets}
	if err := decodeOver("link", fc.Link, &fl); err != nil {
		return Config{}, err
	}
	cfg.Link.PropDelay = sim.Time(fl.PropDelayNS)
	cfg.Link.WordTime = sim.Time(fl.WordTimeNS)
	cfg.Link.BufPackets = fl.BufPackets
	if fc.SwitchRouteDelayNS < 0 {
		return Config{}, fmt.Errorf("params: switch_route_delay_ns needs >= 0, got %d", fc.SwitchRouteDelayNS)
	}
	if fc.SwitchRouteDelayNS > 0 {
		cfg.Switch.RouteDelay = sim.Time(fc.SwitchRouteDelayNS)
	}
	if err := checkTiming(cfg.Timing); err != nil {
		return Config{}, err
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

// checkTiming rejects a negative timing constant: every field is a
// duration, and the engine clamps a negative delay to zero, so the run
// would report latencies the configuration does not describe.
func checkTiming(t Timing) error {
	v := reflect.ValueOf(t)
	for i := 0; i < v.NumField(); i++ {
		if d := v.Field(i).Int(); d < 0 {
			return fmt.Errorf("params: timing needs %s >= 0, got %d", v.Type().Field(i).Name, d)
		}
	}
	return nil
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
