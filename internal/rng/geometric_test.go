package rng_test

import (
	"math"
	"sort"
	"testing"

	"timekeeping/internal/rng"
	"timekeeping/internal/workload"
)

// gapMeans lists every gap mean the benchmark profiles draw with: each
// component's GapMean and its bursty x4.
func gapMeans() []float64 {
	seen := map[float64]bool{}
	for _, name := range workload.Names() {
		for _, c := range workload.MustProfile(name).Components {
			if c.GapMean > 0 {
				seen[c.GapMean] = true
				seen[4*c.GapMean] = true
			}
		}
	}
	var out []float64
	for m := range seen {
		out = append(out, m)
	}
	sort.Float64s(out)
	return out
}

// boundaryMean returns a mean that puts the quotient log(u)/den at the
// first uniform of bucket 2048 (u = 1/2), which also bounds bucket 2047
// from below, at most 2 ulps above the integer 1: closer than the
// table's margin, so neither bucket may be tabulated, because a Log
// result an ulp off would truncate that point to 0. It returns the mean
// and the point.
func boundaryMean(t *testing.T) (float64, uint64) {
	t.Helper()
	v := uint64(2048) << rng.GeoShift
	u := float64(v) / (1 << 53)
	m := u / (1 - u) // den = log(u), quotient 1
	for i := 0; i < 1000; i++ {
		q := math.Log(u) / math.Log(1-1/(m+1))
		if q >= 1 && q <= math.Nextafter(math.Nextafter(1, 2), 2) {
			return m, v
		}
		if q < 1 {
			m = math.Nextafter(m, 2) // a larger mean brings den toward 0, raising q
		} else {
			m = math.Nextafter(m, 0)
		}
	}
	t.Fatal("no mean puts a bucket end-point on an integer")
	return 0, 0
}

// nudgedLog returns math.Log(u) moved k ulps (toward zero for k < 0).
func nudgedLog(u float64, k int) float64 {
	l := math.Log(u)
	for ; k > 0; k-- {
		l = math.Nextafter(l, math.Inf(-1))
	}
	for ; k < 0; k++ {
		l = math.Nextafter(l, 0)
	}
	return l
}

// TestGeometricTableExactAtBucketEdges compares, for every gap mean the
// profiles use plus a mean built to put a bucket bound on an integer
// boundary, the table path with the closed form at every bucket
// end-point and its neighbours within 2 ulps of u. For every tabulated
// bucket it also checks that the closed form keeps the tabulated value
// when math.Log is off by up to 2 ulps at either end-point or at the
// next bucket's first uniform: the margin, not luck, is what keeps
// interior draws exact.
func TestGeometricTableExactAtBucketEdges(t *testing.T) {
	adv, advV := boundaryMean(t)
	for _, m := range append(gapMeans(), adv) {
		den := rng.GeoDenominator(m)
		tab := rng.GeoTableFor(m, den, true)
		hits := 0
		for i := 0; i < rng.GeoBuckets; i++ {
			lo := uint64(i) << rng.GeoShift
			hi := lo | (1<<rng.GeoShift - 1)
			for _, edge := range []uint64{lo, hi} {
				for d := -2; d <= 2; d++ {
					v := edge + uint64(d)
					if (d < 0 && edge < uint64(-d)) || v >= 1<<53 {
						continue
					}
					if got, want := rng.GeoSample(tab, den, v), rng.GeoExact(v, den); got != want {
						t.Fatalf("mean %v bucket %d: v=%#x draws %d, closed form %d", m, i, v, got, want)
					}
				}
			}
			if tab[i] == rng.GeoMiss {
				continue
			}
			hits++
			for _, edge := range []uint64{lo, hi, hi + 1} {
				u := float64(edge) / (1 << 53)
				if u == 0 {
					u = 1e-18
				}
				for k := -2; k <= 2; k++ {
					if n := int(nudgedLog(u, k) / den); n != int(tab[i]) {
						t.Fatalf("mean %v bucket %d holds %d, but a Log %d ulps off at v=%#x gives %d",
							m, i, tab[i], k, edge, n)
					}
				}
			}
		}
		if m != adv && hits < rng.GeoBuckets*9/10 {
			t.Errorf("mean %v: only %d of %d buckets tabulated", m, hits, rng.GeoBuckets)
		}
		if b := advV >> rng.GeoShift; m == adv && (tab[b-1] != rng.GeoMiss || tab[b] != rng.GeoMiss) {
			t.Errorf("boundary mean %v: bucket %d or %d tabulated despite a bound at quotient %v",
				m, b-1, b, rng.GeoLog(advV)/den)
		}
	}
}

// TestGeometricMatchesClosedForm draws 10^7 seeded samples per gap mean
// (10^5 under -short or the race detector) through Geometric and
// compares each with the closed form evaluated on the same uniform.
func TestGeometricMatchesClosedForm(t *testing.T) {
	draws := 10_000_000
	if testing.Short() || raceEnabled {
		draws = 100_000
	}
	for i, m := range gapMeans() {
		a, b := rng.New(uint64(i)+1), rng.New(uint64(i)+1)
		den := rng.GeoDenominator(m)
		for j := 0; j < draws; j++ {
			if got, want := a.Geometric(m), rng.GeoExact(b.Uint64()>>11, den); got != want {
				t.Fatalf("mean %v draw %d: Geometric %d, closed form %d", m, j, got, want)
			}
		}
	}
}
