package main

import (
	"context"
	"math"
	"time"

	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// sampledBenches is the tkbench set.
var sampledBenches = []string{"eon", "twolf", "vpr", "ammp", "swim", "mcf", "facerec", "gcc"}

// sampledBatches is the fewest batches a sampled run times.
const sampledBatches = 3

// runSampled times, per bench, one exact run (auto engine) and one run
// under the default fixed-period sampling policy, alternating which goes
// first from bench to bench, in batches until the requested seconds are
// used and at least sampledBatches times. Each run's time is its median
// over the batches, so a burst of host contention that slows one batch
// moves no metric; so is the peak resident set size of each batch. Its set-up is tksim running each of those runs on one
// reference.
func runSampled(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	opts := sim.Default()
	opts.Seed = cfg.seed
	opts.MeasureRefs = 2_000_000
	benches := sampledBenches
	if cfg.smoke {
		opts.WarmupRefs, opts.MeasureRefs = 20_000, 200_000
		benches = []string{"twolf", "mcf"}
	}
	sopts := opts
	sopts.Sampling = sample.DefaultPolicy()

	root := tr.begin(0, "bench", "sampled")
	defer tr.end(root)
	var setup [][]string
	for _, b := range benches {
		exact := append([]string{cfg.bin("tksim"), "-bench", b}, tinyRun(cfg.seed)...)
		setup = append(setup, exact, append(exact[:len(exact):len(exact)], "-sample"))
	}
	setupS, err := timeSetup(cfg, tr, root, setup)
	if err != nil {
		return nil, err
	}
	var (
		exactT, sampledT = make([][]float64, len(benches)), make([][]float64, len(benches))
		peaks            []float64
		exact, sampled   []sim.Result
	)
	batches := sampledBatches
	if cfg.smoke {
		batches = 1
	}
	start := time.Now()
	for n := 0; n < batches || time.Since(start).Seconds() < cfg.seconds; n++ {
		exact = make([]sim.Result, len(benches))
		sampled = make([]sim.Result, len(benches))
		resetPeakRSS()
		for i, b := range benches {
			spec := workload.MustProfile(b)
			timed := func(o sim.Options, name string, out *sim.Result) float64 {
				rep.attempted++
				span := tr.begin(root, "sim", name+" "+b)
				t0 := time.Now()
				res, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: o, Engine: sim.EngineAuto})
				d := time.Since(t0)
				tr.end(span)
				if err != nil {
					rep.fail("%s run %s: %v", name, b, err)
				}
				*out = res
				return d.Seconds()
			}
			if (uint64(i)+cfg.seed)%2 == 0 {
				exactT[i] = append(exactT[i], timed(opts, "exact", &exact[i]))
				sampledT[i] = append(sampledT[i], timed(sopts, "sampled", &sampled[i]))
			} else {
				sampledT[i] = append(sampledT[i], timed(sopts, "sampled", &sampled[i]))
				exactT[i] = append(exactT[i], timed(opts, "exact", &exact[i]))
			}
		}
		peaks = append(peaks, peakRSSMB())
	}
	var exactS, sampledS float64
	for i := range benches {
		exactS += median(exactT[i])
		sampledS += median(sampledT[i])
	}
	rep.e2e["wall_s"] = exactS + sampledS
	rep.e2e["setup_s"] = setupS
	rep.e2e["peak_rss_mb"] = median(peaks)
	rep.layer["exact_s"] = exactS
	rep.layer["sampled_s"] = sampledS

	// Sampled results are estimates: they are never compared with exact
	// or golden numbers. Their error is a metric; a sampled run that
	// carries no estimate is a failure.
	var errSum float64
	var covered, windows int
	var detailed, warm, refs uint64
	for i, b := range benches {
		e := sampled[i].Estimate
		if e == nil || e.Windows == 0 {
			rep.fail("sampled run %s carries no estimate", b)
			continue
		}
		x := exact[i].CPU.IPC
		errSum += math.Abs(e.IPC.Mean-x) / x
		if e.IPC.Contains(x) {
			covered++
		}
		windows += e.Windows
		detailed += e.DetailedRefs
		warm += e.WarmRefs
		refs += exact[i].TotalRefs + sampled[i].TotalRefs
	}

	// The exact runs are recomputed with the reference engine and must be
	// identical in canonical JSON.
	span := tr.begin(root, "sim", "reference recompute")
	specs := make([]sim.Spec, len(benches))
	for i, b := range benches {
		specs[i] = sim.Spec{Workload: workload.MustProfile(b), Opts: opts, Engine: sim.EngineReference}
	}
	refRes, errs := runParallel(specs)
	tr.end(span)
	for i, b := range benches {
		rep.attempted++
		if errs[i] != nil {
			rep.fail("reference recompute %s: %v", b, errs[i])
			continue
		}
		if d := diffJSON(exact[i], refRes[i]); d != "" {
			rep.fail("%s: auto engine and reference engine differ: %s", b, d)
		}
	}

	if tr != nil {
		n := float64(len(benches))
		rep.layer["ipc_rel_err"] = errSum / n
		rep.layer["ci_coverage"] = float64(covered) / n
		rep.layer["sample.windows"] = float64(windows)
		rep.layer["sample.detailed_share"] = ratio(float64(detailed), float64(detailed+warm))
		rep.layer["workload.refs"] = float64(refs)
		var acc, miss, l2hit, l2miss uint64
		for _, r := range exact {
			acc += r.Hier.Accesses
			miss += r.Hier.Misses
			l2hit += r.Hier.L2Hits
			l2miss += r.Hier.L2Misses
		}
		rep.layer["l1.accesses"] = float64(acc)
		rep.layer["l1.miss_ratio"] = ratio(float64(miss), float64(acc))
		rep.layer["l2.miss_ratio"] = ratio(float64(l2miss), float64(l2hit+l2miss))
		if err := probeSimulator(cfg, tr, root, rep, false); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
