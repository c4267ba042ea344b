// Package noalloc is golden testdata for the noalloc analyzer: a
// //tgvet:noalloc doc directive promises a function allocates nothing
// in steady state, and the analyzer flags every construct that can
// reach the allocator — transitively through the call graph.
package noalloc

import (
	"math/bits"
	"strconv"

	"telegraphos/internal/sim"
)

type ring struct {
	buf  []int
	head int
	tag  string
}

// A clean hot-path function: indexing, arithmetic, calls to other
// noalloc functions.

//tgvet:noalloc
func (r *ring) at(i int) int {
	return r.buf[(r.head+i)%len(r.buf)]
}

//tgvet:noalloc
func (r *ring) second() int {
	return r.at(1)
}

// Direct allocation sites.

//tgvet:noalloc
func build(n int) []int {
	s := make([]int, n) // want `make in //tgvet:noalloc function allocates`
	p := new(ring)      // want `new in //tgvet:noalloc function allocates`
	_ = p
	s = append(s, 1) // want `append in //tgvet:noalloc function may grow`
	lit := []int{1, 2} // want `slice literal in //tgvet:noalloc function`
	m := map[int]int{} // want `map literal in //tgvet:noalloc function`
	m[3] = 4           // want `map assignment in //tgvet:noalloc function`
	rp := &ring{}      // want `address-taken composite literal`
	_ = rp
	_ = lit
	return s
}

// Amortized growth is declared where it happens.

//tgvet:noalloc
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) //tgvet:allow noalloc(amortized doubling; steady state reuses the backing array)
}

// Strings and conversions.

//tgvet:noalloc
func describe(r *ring, b []byte) string {
	s := r.tag + "!"   // want `string concatenation in //tgvet:noalloc function`
	s += "?"           // want `string concatenation in //tgvet:noalloc function`
	t := string(b)     // want `\[\]byte/\[\]rune-to-string conversion`
	bb := []byte(s)    // want `string-to-slice conversion`
	_ = bb
	return s + t // want `string concatenation in //tgvet:noalloc function`
}

// Closures, goroutines, defers.

//tgvet:noalloc
func control(r *ring) {
	f := func() {} // want `function literal in //tgvet:noalloc function`
	go f()         // want `go statement in //tgvet:noalloc function` `dynamic call through a function value`
	defer f()      // want `defer in //tgvet:noalloc function` `dynamic call through a function value`
	g := r.at      // want `bound method value r.at in //tgvet:noalloc function allocates a closure`
	_ = g
}

// Interface boxing: non-constant concrete values box; constants are
// static data and pass.

type anySink interface{ take(v interface{}) }

func plainSink(v interface{}) {}

//tgvet:noalloc
func box(r *ring, v int) interface{} {
	plainSink(v)   // want `callee is not marked //tgvet:noalloc` `argument boxes a concrete value`
	plainSink(42)  // want `callee is not marked //tgvet:noalloc`
	var i interface{} = v // no report: plain assignment conversion is out of scope here
	_ = i
	return v // want `return boxes a concrete value into interface result`
}

// The contract is transitive: calling an unmarked function fails even
// if that function happens to be clean today.

func cleanButUnmarked(x int) int { return x + 1 }

//tgvet:noalloc
func transitive(x int) int {
	return cleanButUnmarked(x) // want `callee is not marked //tgvet:noalloc \(the contract is transitive\)`
}

// Interface calls resolve through CHA: every module implementation
// must carry the contract.

type pusher interface{ push2(v int) }

type fastPusher struct{ n int }

//tgvet:noalloc
func (f *fastPusher) push2(v int) { f.n += v }

type slowPusher struct{ xs []int }

func (s *slowPusher) push2(v int) {
	s.xs = append(s.xs, v)
}

//tgvet:noalloc
func drain(p pusher) {
	p.push2(1) // want `implementation .*slowPusher.push2 is not marked //tgvet:noalloc`
}

type poker interface{ poke(v int) }

//tgvet:noalloc
func (f *fastPusher) poke(v int) { f.n -= v }

//tgvet:noalloc
func drainFast(p poker) {
	p.poke(2) // clean: the only implementation is marked
}

// Dynamic calls through function values cannot be proven.

//tgvet:noalloc
func dynamic(fn func(int) int) int {
	return fn(1) // want `dynamic call through a function value`
}

// Calls that leave the analyzed module cannot be proven either.

//tgvet:noalloc
func leaves(eng *sim.Engine) {
	_ = eng.Now() // want `leaves the analyzed module`
}

// The standard library is not analyzed: only the allocation-free
// packages on the allow-list pass.

//tgvet:noalloc
func lowest(x uint64) int {
	return bits.TrailingZeros64(x) + bits.OnesCount64(x)
}

//tgvet:noalloc
func itoa(n int) string {
	return strconv.Itoa(n) // want `call to strconv.Itoa in //tgvet:noalloc function leaves the analyzed module`
}

// Variadic calls materialize their argument slice.

func varia(xs ...int) {}

//tgvet:noalloc
func callVariadic(a, b int) {
	varia(a, b) // want `callee is not marked` `variadic call in //tgvet:noalloc function allocates its argument slice`
}

// Unannotated functions are never checked.
func freeForAll() []int {
	return append([]int{}, 1, 2, 3)
}
