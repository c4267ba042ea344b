package sim

// RNG is a small deterministic random-number generator (splitmix64) whose
// sequence is a pure function of its seed — independent of platform, Go
// version, and math/rand internals. The simulation-test harness and the
// fault-injection layer use it so that a failing seed reproduces the exact
// same packet-level schedule anywhere.
//
// Child streams derived with Fork are statistically independent of the
// parent and of each other, which lets one scenario seed drive many
// components (per-link injectors, per-node workloads) without the streams
// aliasing.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Scramble once so nearby seeds (0, 1, 2, ...) diverge immediately.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Duration returns a uniform Time in [0, max] (0 when max <= 0).
func (r *RNG) Duration(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(max+1))
}

// Fork derives an independent child stream labeled by name: the same
// (seed, name) pair always yields the same child sequence.
func (r *RNG) Fork(name string) *RNG {
	// FNV-1a over the label, mixed into the parent's seed state.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(r.state ^ h)
}

// ForkRNG derives a deterministic child stream directly from a numeric
// seed and a label, without constructing a parent first.
func ForkRNG(seed uint64, name string) *RNG {
	return NewRNG(seed).Fork(name)
}
