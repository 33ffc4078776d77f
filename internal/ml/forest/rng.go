package forest

import "math/rand"

// The parameters of math/rand's Go 1 source (math/rand/rng.go), which
// source reproduces.
const (
	rngLen   = 607 // lag of the feedback register
	rngTap   = 273 // short lag
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding LCG's prime modulus
	seedMul  = 48271     // the seeding LCG's multiplier
)

// source is math/rand's Go 1 generator reproduced draw for draw: the
// additive lagged Fibonacci generator over a 607-word register with tap
// 273, whose Uint64 is copied as is. Each training tree reseeds one, so
// only Seed differs. math/rand fills word i from steps 21+3i, 22+3i and
// 23+3i of the LCG x ← 48271·x mod (2³¹−1) started at the seed — 1,841
// dependent Schrage divisions. Step k equals seed·48271ᵏ mod (2³¹−1),
// so with the powers tabled once (seedPow) every word is three
// independent multiplications, each reduced without division (mulMod).
// The result is the same register, so every draw is the same.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

var (
	// seedPow[i][j] is 48271^(21+3i+j) mod 2³¹−1: the LCG step that
	// feeds part j of register word i.
	seedPow [rngLen][3]uint32
	// rngCooked is math/rand's unexported table of the same name, the
	// constants XORed into the register after seeding (see init).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 20; k++ {
		p = mulMod(p, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = mulMod(p, seedMul)
			seedPow[i][j] = uint32(p)
		}
	}
	// Recover rngCooked from math/rand itself, so the standard library
	// stays the single source of truth. After Seed(1), word i of the
	// register is u[i] ^ rngCooked[i], u[i] being the word Seed(1)
	// assembles from the LCG; solve that register V back from the first
	// 607 draws. Draw j adds the word at tap position 606−j to the word
	// at feed position (333−j) mod 607 and stores the sum there. Within
	// the first 607 draws each feed position is written once, and the
	// tap trails the feed by 273 draws: for j ≥ 273 it reads draw j−273,
	// before that the untouched V[606−j]. So V[feed(j)] = out[j] −
	// out[j−273] for j ≥ 273, which covers positions 0..60 and 334..606,
	// and then V[feed(j)] = out[j] − V[606−j] for j < 273, whose
	// V[606−j] lies in 334..606.
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]uint64
	for j := range out {
		out[j] = src.Uint64()
	}
	feed := func(j int) int { return (2*rngLen - rngTap - 1 - j) % rngLen }
	for j := rngTap; j < rngLen; j++ {
		v[feed(j)] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		v[feed(j)] = out[j] - v[rngLen-1-j]
	}
	// With rngCooked still zero, Seed(1) leaves exactly u[i] in word i.
	var s source
	s.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = int64(v[i]) ^ s.vec[i]
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1. Since 2³¹ ≡ 1, adding
// the bits above 31 onto the low 31 keeps the residue, and as the
// product is below (2³¹−2)², the sum r is below 2·(2³¹−1). Then r+1
// carries into bit 31 exactly when r ≥ 2³¹−1; adding that carry and
// clearing bit 31 subtracts 2³¹−1 in that case, without a branch.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	return (r + (r+1)>>31) & int32max
}

// Seed sets the register exactly as math/rand's Seed does, normalizing
// the seed the same way: modulo 2³¹−1, negatives wrapped, 0 → 89482311.
//
//cabd:hotpath
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	// Word i: the three LCG steps shifted into place as math/rand
	// does, then the rngCooked XOR.
	x := uint64(seed)
	for i := range s.vec {
		w := &seedPow[i]
		s.vec[i] = int64(mulMod(x, uint64(w[0]))<<40^mulMod(x, uint64(w[1]))<<20^mulMod(x, uint64(w[2]))) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative 63-bit draw.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 advances the register by one step: math/rand's Uint64 verbatim.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
