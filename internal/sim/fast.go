package sim

import (
	"context"

	"timekeeping/internal/core"
	"timekeeping/internal/decay"
	"timekeeping/internal/engine"
	"timekeeping/internal/obs"
	"timekeeping/internal/sample"
	"timekeeping/internal/trace"
)

// runFast drives the batched struct-of-arrays engine (internal/engine).
// The construction, warm-up/reset/measure sequence (or, for a sampled
// run, the hand-off to internal/sample), and result assembly mirror
// runReference exactly; the differential gates hold the two paths
// byte-identical over the whole corpus. factory re-derives the stream
// for the phase schedule's profiling pass; it may be nil otherwise.
func runFast(ctx context.Context, name string, stream trace.Stream, factory func() (trace.Stream, error), opt Options) (Result, error) {
	e := engine.New(engine.Config{Hier: opt.Hier, CPU: opt.CPU})

	vc, err := newVictimCache(opt, e.NumFrames())
	if err != nil {
		return Result{}, err
	}
	if vc != nil {
		e.AttachVictim(vc)
	}

	pfs, err := newPrefetchers(opt, e.L1())
	if err != nil {
		return Result{}, err
	}
	switch {
	case pfs.tk != nil:
		e.AttachTimekeeping(pfs.tk)
	case pfs.dbcp != nil:
		e.AttachDBCP(pfs.dbcp)
	case pfs.nl != nil:
		e.AttachNextLine(pfs.nl)
	}

	var tracker *core.FastTracker
	if opt.Track {
		tracker = core.NewFastTracker(e.NumFrames())
		e.AttachTracker(tracker)
	}

	var dec *decay.Sim
	if len(opt.DecayIntervals) > 0 {
		dec = decay.New(e.NumFrames(), opt.DecayIntervals)
		e.AttachDecay(dec)
	}

	e.SetProgress(opt.Progress)

	var res Result
	if opt.Sampling != nil {
		scfg := sample.Config{CPU: e, Hier: e}
		if tracker != nil {
			scfg.Warmables = []sample.Warmable{tracker}
		}
		res, err = runSampled(ctx, name, scfg, stream, factory, opt)
		if err != nil {
			return Result{}, err
		}
	} else {
		opt.Progress.Begin(obs.PhaseWarmup, opt.WarmupRefs+opt.MeasureRefs)
		warm, err := e.Run(ctx, stream, opt.WarmupRefs)
		if err != nil {
			return Result{}, err
		}

		// Measurement window: reset statistics, keep all state (the same
		// sequence, in the same order, as runReference).
		e.ResetStats()
		if vc != nil {
			vc.ResetStats()
		}
		pfs.resetStats()
		if tracker != nil {
			tracker.Reset()
		}

		opt.Progress.SetPhase(obs.PhaseMeasure)
		final, err := e.Run(ctx, stream, opt.MeasureRefs)
		if err != nil {
			return Result{}, err
		}

		res = Result{
			Bench:     name,
			CPU:       final.Minus(warm),
			Hier:      e.Stats(),
			TotalRefs: final.Refs,
		}
	}
	if vc != nil {
		s := vc.Stats()
		res.Victim = &s
	}
	if tracker != nil {
		res.Tracker = tracker.Metrics()
	}
	if dec != nil {
		res.Decay = dec.Results()
	}
	pfs.report(&res)
	return res, nil
}
