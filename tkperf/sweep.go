package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"timekeeping/internal/experiments"
	"timekeeping/internal/golden"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// sweepFigures is the tkexp batch the sweep workload times.
var sweepFigures = []string{"fig1", "fig13", "fig19"}

// sweepConfigs are the experiments configurations the three figures
// resolve, by the names experiments.Runner.Result takes.
var sweepConfigs = []string{"base", "perfect", "vnone", "vcollins", "vdecay", "tk", "dbcp"}

// corpusSeed is the seed testdata/golden was recorded at.
const corpusSeed = 1

// sweepPoint is one (config, bench) simulation of the batch.
type sweepPoint struct{ config, bench string }

func sweepPoints(benches []string) []sweepPoint {
	var pts []sweepPoint
	for _, c := range sweepConfigs {
		for _, b := range benches {
			pts = append(pts, sweepPoint{c, b})
		}
	}
	return pts
}

// runSweep times closed tkexp batches (fig1, fig13, fig19 over the whole
// suite, exact, auto engine) until the requested seconds are used, each
// on a private fresh result cache with no disk tier. Its set-up is tkexp
// rendering the same figures on one reference per run.
func runSweep(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	base := sim.Default()
	base.Seed = cfg.seed
	benches := workload.Names()
	if cfg.smoke {
		base.WarmupRefs, base.MeasureRefs = 5_000, 20_000
		benches = []string{"mcf", "twolf", "ammp"}
	}
	points := sweepPoints(benches)

	root := tr.begin(0, "bench", "sweep")
	defer tr.end(root)
	setup := append([]string{cfg.bin("tkexp"), "-progress=false", "-benches", strings.Join(benches, ",")}, tinyRun(cfg.seed)...)
	setupS, err := timeSetup(cfg, tr, root, [][]string{append(setup, sweepFigures...)})
	if err != nil {
		return nil, err
	}
	var (
		walls, mrefs, utils, peaks []float64
		last                       *experiments.Runner
		lastStats                  simcache.Stats
	)
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds {
		// A fresh store per batch: reusing one (or simcache.Default)
		// would turn every later batch into cache hits.
		store := simcache.New()
		r := &experiments.Runner{Opts: base, Benches: benches, Cache: store, Engine: sim.EngineAuto}
		rep.attempted += len(points)
		resetPeakRSS()
		cpu0, t0 := cpuTime(), time.Now()
		err := runFigures(r, tr, root)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			rep.fail("sweep batch: %v", err)
			return rep, nil
		}
		st := store.Stats()
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, peakRSSMB())
		mrefs = append(mrefs, float64(st.Refs)/wall.Seconds()/1e6)
		utils = append(utils, cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		last, lastStats = r, st
	}
	rep.e2e["wall_s"] = median(walls)
	rep.e2e["setup_s"] = setupS
	rep.e2e["peak_rss_mb"] = median(peaks)
	rep.layer["sim_mrefs_per_s"] = median(mrefs)
	fmt.Fprintf(os.Stderr, "tkperf: sweep: %d batch(es), %d simulations each\n", len(walls), lastStats.Runs)

	results := checkSweep(cfg, tr, root, rep, last, points)

	if tr != nil {
		lookups := lastStats.Hits + lastStats.Joined + lastStats.Misses
		rep.layer["experiments.sims"] = float64(lastStats.Runs)
		rep.layer["experiments.dedup_ratio"] = ratio(float64(lastStats.Hits+lastStats.Joined), float64(lookups))
		rep.layer["experiments.cpu_util"] = median(utils)
		rep.layer["workload.refs"] = float64(lastStats.Refs)
		sweepCounts(rep, points, results)
		if err := probeSimulator(cfg, tr, root, rep, true); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runFigures renders the batch's figures, turning an experiments panic
// (a failed simulation) into an error.
func runFigures(r *experiments.Runner, tr *tracer, parent int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	for _, id := range sweepFigures {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		span := tr.begin(parent, "experiments", id)
		if len(e.Run(r)) == 0 {
			tr.end(span)
			return fmt.Errorf("%s rendered no tables", id)
		}
		tr.end(span)
	}
	return nil
}

// checkSweep verifies the batch's results, read back from the timed
// runner r; a point the batch did not simulate is a failure. At the
// corpus seed every base-config result must match testdata/golden under
// golden.Diff. At any seed a seeded sample of points is recomputed by a
// reference-engine runner on a fresh cache and must be identical in
// canonical JSON. It returns the results in point order.
func checkSweep(cfg config, tr *tracer, parent int, rep *report, r *experiments.Runner, points []sweepPoint) []sim.Result {
	results := make([]sim.Result, len(points))
	for i, p := range points {
		runs := r.Cache.Stats().Runs
		res, err := runnerResult(r, p)
		switch {
		case err != nil:
			rep.fail("sweep %s/%s: %v", p.config, p.bench, err)
		case r.Cache.Stats().Runs != runs:
			rep.fail("sweep %s/%s: not simulated by the timed batch", p.config, p.bench)
		default:
			results[i] = res
		}
	}

	if cfg.seed == corpusSeed && !cfg.smoke {
		dir := filepath.Join(cfg.root, "testdata", "golden")
		for i, p := range points {
			if p.config != "base" || results[i].TotalRefs == 0 {
				continue
			}
			want, err := golden.LoadFrom(dir, p.bench)
			if err != nil {
				rep.fail("golden %s: %v", p.bench, err)
				continue
			}
			if d := golden.Diff(golden.EntryOf(p.bench, golden.CorpusOptions(), results[i]), want); d != "" {
				rep.fail("golden %s: %s", p.bench, d)
			}
		}
	}

	const samplePoints = 8
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7377656570)) // "sweep"
	var picks []int
	for _, i := range rng.Perm(len(points)) {
		if results[i].TotalRefs != 0 {
			picks = append(picks, i)
		}
		if len(picks) == samplePoints {
			break
		}
	}
	span := tr.begin(parent, "sim", "reference recompute")
	defer tr.end(span)
	ref := &experiments.Runner{Opts: r.Opts, Benches: r.Benches, Cache: simcache.New(), Engine: sim.EngineReference}
	refs := make([]sim.Result, len(picks))
	errs := make([]error, len(picks))
	parallel(len(picks), func(j int) { refs[j], errs[j] = runnerResult(ref, points[picks[j]]) })
	for j, i := range picks {
		rep.attempted++
		p := points[i]
		if errs[j] != nil {
			rep.fail("reference recompute %s/%s: %v", p.config, p.bench, errs[j])
			continue
		}
		if d := diffJSON(results[i], refs[j]); d != "" {
			rep.fail("%s/%s: auto engine and reference engine differ: %s", p.config, p.bench, d)
		}
	}
	return results
}

// runnerResult is r.Result with the runner's panic on a failed
// simulation turned into an error.
func runnerResult(r *experiments.Runner, p sweepPoint) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	return r.Result(p.config, p.bench), nil
}

// sweepCounts fills the simulated work counts from the batch's results.
func sweepCounts(rep *report, points []sweepPoint, results []sim.Result) {
	var acc, miss, l2hit, l2miss, gens, offered, admitted, issued, useful uint64
	for i, p := range points {
		r := results[i]
		acc += r.Hier.Accesses
		miss += r.Hier.Misses
		l2hit += r.Hier.L2Hits
		l2miss += r.Hier.L2Misses
		if r.Tracker != nil {
			gens += r.Tracker.Generations
		}
		if r.Victim != nil {
			offered += r.Victim.Offered
			admitted += r.Victim.Admitted
		}
		if p.config == "tk" || p.config == "dbcp" {
			issued += r.PFIssued
			useful += r.Hier.PFUseful
		}
	}
	rep.layer["l1.accesses"] = float64(acc)
	rep.layer["l1.miss_ratio"] = ratio(float64(miss), float64(acc))
	rep.layer["l2.miss_ratio"] = ratio(float64(l2miss), float64(l2hit+l2miss))
	rep.layer["tracker.generations"] = float64(gens)
	rep.layer["victim.admit_ratio"] = ratio(float64(admitted), float64(offered))
	rep.layer["prefetch.useful_ratio"] = ratio(float64(useful), float64(issued))
}
