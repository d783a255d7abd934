package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"timekeeping/internal/cluster"
	"timekeeping/internal/experiments"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// mechanism is one request shape of the serve key set.
type mechanism struct {
	victim, prefetch string
	track            bool
}

var mechanisms = []mechanism{
	{track: true},
	{victim: "decay"},
	{prefetch: "timekeeping"},
	{victim: "collins"},
}

// planKey is one distinct run request of the serve workload.
type planKey struct {
	req    api.RunRequest
	opts   sim.Options // what the node resolves req to
	key    string      // simcache.Key: the ring shards by it
	ownerA bool        // owned by node A (the node the clients talk to)
}

// servePlan is the serve workload's input: distinct keys and the order
// in which requests touch them.
type servePlan struct {
	keys []planKey
	seq  []int // request i asks for keys[seq[i]]
}

// tkexpLookupsPerKey measures how often a tkexp client asks for each
// distinct result. It renders the sweep workload's figures over the
// whole suite on a fresh cache, at a scale small enough to take a
// moment, and returns lookups per distinct key: (hits + joined + misses)
// / misses. The count depends only on which points the figures ask for,
// not on the scale, so it equals 1 / (1 − experiments.dedup_ratio) of
// the sweep workload's traced run.
func tkexpLookupsPerKey() (float64, error) {
	opts := sim.Default()
	opts.WarmupRefs, opts.MeasureRefs = 100, 1_000
	store := simcache.New()
	r := &experiments.Runner{Opts: opts, Benches: workload.Names(), Cache: store}
	if err := runFigures(r, nil, 0); err != nil {
		return 0, err
	}
	st := store.Stats()
	if st.Misses == 0 {
		return 0, errors.New("the figures looked up no results")
	}
	return float64(st.Hits+st.Joined+st.Misses) / float64(st.Misses), nil
}

// newServePlan builds the key set and request order for a seed. combos
// (bench, mechanism) pairs are taken in a fixed order; each contributes
// exactly two keys, one owned by each node, which differ only in their
// simulation seed. So half the keys are owned by node B, and the work
// behind node A's keys is the same mix of benches and mechanisms at
// every seed. base is the options the nodes resolve requests against.
// Each key is requested lookupsPerKey times on average, the repeat rate
// of a tkexp client (tkexpLookupsPerKey).
func newServePlan(seed uint64, combos int, nodes []string, base sim.Options, lookupsPerKey float64) (*servePlan, error) {
	if lookupsPerKey < 1 {
		return nil, fmt.Errorf("%v lookups per key: want at least 1", lookupsPerKey)
	}
	ring, err := cluster.NewRing(nodes, cluster.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x7365727665)) // "serve"
	benches := workload.Names()
	p := &servePlan{}
	for c := 0; c < combos; c++ {
		bench := benches[c%len(benches)]
		mech := mechanisms[(c/len(benches))%len(mechanisms)]
		var haveA, haveB bool
		for try := 0; !(haveA && haveB); try++ {
			if try == 1000 {
				return nil, fmt.Errorf("no seed splits %s between the nodes", bench)
			}
			req := api.RunRequest{
				Bench:    bench,
				Victim:   mech.victim,
				Prefetch: mech.prefetch,
				Track:    mech.track,
				Seed:     1 + rng.Uint64N(1<<31),
			}
			opts, err := requestOptions(base, req)
			if err != nil {
				return nil, err
			}
			key := simcache.Key(bench, opts)
			ownerA := ring.Owner(key) == nodes[0]
			if (ownerA && haveA) || (!ownerA && haveB) {
				continue
			}
			haveA = haveA || ownerA
			haveB = haveB || !ownerA
			p.keys = append(p.keys, planKey{req: req, opts: opts, key: key, ownerA: ownerA})
		}
	}

	// Request order: first touches in a seeded order, spread over the
	// sequence; every other request repeats a key already touched.
	k := len(p.keys)
	order := rng.Perm(k)
	isNew := make([]bool, int(math.Round(float64(k)*lookupsPerKey)))
	isNew[0] = true
	for _, j := range rng.Perm(len(isNew) - 1)[:k-1] {
		isNew[j+1] = true
	}
	introduced := 0
	for _, fresh := range isNew {
		if fresh {
			p.seq = append(p.seq, order[introduced])
			introduced++
			continue
		}
		p.seq = append(p.seq, order[rng.IntN(introduced)])
	}
	return p, nil
}

// requestOptions resolves a run request against the nodes' base options
// exactly as tkserve does for the fields the plan sets. A test holds the
// resulting keys equal to the server's own CacheKey.
func requestOptions(base sim.Options, req api.RunRequest) (sim.Options, error) {
	opt := base
	vf, err := sim.ParseVictimFilter(req.Victim)
	if err != nil {
		return opt, err
	}
	pf, err := sim.ParsePrefetcher(req.Prefetch)
	if err != nil {
		return opt, err
	}
	opt.VictimFilter = vf
	opt.Prefetcher = pf
	opt.Track = req.Track
	if req.Seed > 0 {
		opt.Seed = req.Seed
	}
	return opt, nil
}

// firstTouches returns, for each key, the index of the request that
// touches it first.
func (p *servePlan) firstTouches() []int {
	first := make([]int, len(p.keys))
	for i := range first {
		first[i] = -1
	}
	for i, k := range p.seq {
		if first[k] < 0 {
			first[k] = i
		}
	}
	return first
}

// Request classes: the cache outcome node A must report for a request,
// and the latency bucket it falls in.
const (
	classCold         = "cold"          // first touch of an A key, empty stores
	classDisk         = "disk"          // first touch of an A key after restart
	classHit          = "hit"           // repeat of an A key
	classProxiedFirst = "proxied_first" // first touch of a B key (not a metric)
	classProxied      = "proxied"       // repeat of a B key
)

// classOf is the class of a request for a key owned by A or not, first
// touch of the phase or not, before or after the restart.
func classOf(ownerA, first, restarted bool) string {
	switch {
	case !ownerA && first:
		return classProxiedFirst
	case !ownerA:
		return classProxied
	case !first:
		return classHit
	case restarted:
		return classDisk
	default:
		return classCold
	}
}

// wantCache is the JobView.Cache value each class must carry.
var wantCache = map[string]string{
	classCold:         api.CacheMiss,
	classDisk:         api.CacheDisk,
	classHit:          api.CacheHit,
	classProxiedFirst: api.CacheProxied,
	classProxied:      api.CacheProxied,
}
