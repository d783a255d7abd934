// Package rng provides a small deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must produce bit-identical results for a given seed across
// platforms and Go releases, because every experiment in the paper is a
// statement about distributions collected from a fixed run. The standard
// library's math/rand historically changed its stream between releases, so
// we carry our own xoshiro256** generator seeded through splitmix64, the
// combination recommended by Blackman and Vigna.
package rng

import (
	"math"
	"sync"
)

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct one with New.
type Source struct {
	s0, s1, s2, s3 uint64

	// Geometric's per-mean state: callers draw with the same mean for a
	// whole burst, so the denominator log(1-p) and the mean's bucket
	// table (see buildGeoTable) are looked up once per mean change. Reusing
	// the stored float64 is bit-identical to recomputing it.
	geoMean  float64
	geoDen   float64
	geoTab   *[geoBuckets]uint16
	geoDraws int // Geometric draws so far, counted up to geoBuildDraws
}

// New returns a Source seeded from the given seed via splitmix64, so that
// nearby seeds still produce uncorrelated streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if it had been created by New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns a uniform 32-bit value.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (number of failures before the first success, mean m >= 0). It is used
// for inter-reference gaps. Returns 0 when m <= 0.
//
// The sample is int(log(u)/log(1-p)) for the 53-bit uniform u, clamped
// to [0, maxGap]. Most draws read it from the mean's bucket table instead
// of calling math.Log; the table holds a value only where every u in the
// bucket provably yields it (see buildGeoTable), so the stream is
// bit-identical to evaluating the formula on every draw.
func (r *Source) Geometric(m float64) int {
	if m <= 0 {
		return 0
	}
	if m != r.geoMean || r.geoTab == nil {
		r.geoMean, r.geoDen = m, geoDenominator(m)
		r.geoTab = geoTableFor(m, r.geoDen, r.geoDraws == geoBuildDraws)
	}
	if r.geoDraws < geoBuildDraws {
		// A short stream draws through the closed form (or tables other
		// streams built) rather than paying for a table it cannot
		// amortise.
		if r.geoDraws++; r.geoDraws == geoBuildDraws {
			r.geoTab = geoTableFor(m, r.geoDen, true)
		}
	}
	return geoSample(r.geoTab, r.geoDen, r.Uint64()>>11)
}

// geoSample is Geometric's draw for the 53-bit uniform v, through the
// mean's bucket table and, where the table has no value, the closed form.
func geoSample(tab *[geoBuckets]uint16, den float64, v uint64) int {
	if n := tab[v>>geoShift]; n != geoMiss {
		return int(n)
	}
	return geoExact(v, den)
}

// maxGap caps Geometric's pathological tails.
const maxGap = 1 << 20

// geoDenominator is Geometric's log(1-p) for mean m.
func geoDenominator(m float64) float64 {
	p := 1 / (m + 1)
	return math.Log(1 - p)
}

// geoExact is Geometric's closed form for the 53-bit uniform v: inverse
// transform sampling with the tail capped. It stays out of line so that
// geoSample, whose table hit is the common case, inlines into Geometric.
//
//go:noinline
func geoExact(v uint64, den float64) int {
	n := int(geoLog(v) / den)
	if n < 0 {
		return 0
	}
	if n > maxGap {
		return maxGap
	}
	return n
}

// The bucket table splits the 53-bit uniform by its top geoBits bits.
// 4096 two-byte entries (8 KB) per mean stay cache-resident and resolve
// all but a few percent of draws for the workloads' gap means.
const (
	geoBits    = 12
	geoBuckets = 1 << geoBits
	geoShift   = 53 - geoBits
	// geoMiss marks a bucket that spans an integer boundary of the
	// closed form (or lies too close to one): its draws take geoExact.
	geoMiss = math.MaxUint16
	// geoMargin is the least distance, relative to the value (and at
	// least 1e-9 absolute), between a tabulated bucket's end-point values
	// and the nearest integer. The closed form's rounding error (math.Log
	// is accurate to within one ulp, the division adds half an ulp) is
	// about 1e-16 relative, so no draw inside such a bucket can truncate
	// to a different integer than its end-points do.
	geoMargin = 1e-9
	// geoCacheMax bounds the process-wide table cache; means beyond it
	// draw through the closed form (same values, no table).
	geoCacheMax = 256
	// geoBuildDraws is how many draws a Source makes before it builds
	// tables for the means it draws with: a table costs about as much as
	// a few thousand closed-form draws, so a run of a few references,
	// such as a set-up probe, never builds one.
	geoBuildDraws = 1024
)

// geoAllMiss is the table of a mean that is not cached: every draw takes
// the closed form.
var geoAllMiss = func() *[geoBuckets]uint16 {
	var t [geoBuckets]uint16
	for i := range t {
		t[i] = geoMiss
	}
	return &t
}()

// geoCache holds the immutable bucket table of every mean drawn so far,
// shared by all Sources in the process, and the bucket bounds' logs the
// tables are built from.
var geoCache struct {
	sync.RWMutex
	tabs map[float64]*[geoBuckets]uint16
	logs *[geoBuckets + 1]float64
}

// geoTableFor returns the bucket table of mean m, whose denominator is
// den: the cached table, else when build is set a newly built and cached
// one, else geoAllMiss.
func geoTableFor(m, den float64, build bool) *[geoBuckets]uint16 {
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return geoAllMiss
	}
	geoCache.RLock()
	t := geoCache.tabs[m]
	geoCache.RUnlock()
	if t != nil {
		return t
	}
	if !build {
		return geoAllMiss
	}
	geoCache.Lock()
	defer geoCache.Unlock()
	if t := geoCache.tabs[m]; t != nil {
		return t
	}
	if len(geoCache.tabs) >= geoCacheMax {
		return geoAllMiss
	}
	if geoCache.tabs == nil {
		geoCache.tabs = make(map[float64]*[geoBuckets]uint16)
		geoCache.logs = geoBoundLogs()
	}
	t = buildGeoTable(geoCache.logs, den)
	geoCache.tabs[m] = t
	return t
}

// geoBoundLogs returns math.Log of every bucket's first uniform, and of
// 1 past the last bucket, exactly as geoExact takes it. Every mean's
// table divides these by its own denominator, so a table costs divisions
// rather than Log calls.
func geoBoundLogs() *[geoBuckets + 1]float64 {
	var l [geoBuckets + 1]float64
	for j := range l {
		l[j] = geoLog(uint64(j) << geoShift)
	}
	return &l
}

// buildGeoTable tabulates every bucket whose draws all give one value;
// logs holds geoBoundLogs. The closed form's real-valued quotient
// log(u)/den falls as u rises, so over bucket i it lies between its
// values at the bucket's first uniform and at the next bucket's first
// (just past the bucket's last). When those two evaluate to the same
// integer part, at least geoMargin away from the integers on either side,
// every draw in the bucket does too, even allowing for rounding in the
// evaluation.
func buildGeoTable(logs *[geoBuckets + 1]float64, den float64) *[geoBuckets]uint16 {
	t := new([geoBuckets]uint16)
	for i := range t {
		large, small := logs[i]/den, logs[i+1]/den
		t[i] = geoMiss
		n := math.Floor(small)
		switch {
		case math.IsNaN(small) || math.IsInf(small, 0) || math.IsNaN(large) || math.IsInf(large, 0):
		case n < 0 || n >= geoMiss:
		case small-n < geoMargin*math.Max(1, small) || n+1-large < geoMargin*math.Max(1, large):
		default:
			t[i] = uint16(n)
		}
	}
	return t
}

// geoLog is math.Log of the uniform v/2^53, with a zero uniform replaced
// by 1e-18.
func geoLog(v uint64) float64 {
	u := float64(v) / (1 << 53)
	if u <= 0 {
		u = 1e-18
	}
	return math.Log(u)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
