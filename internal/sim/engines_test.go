package sim_test

// TestEnginesAgreeOnCorpus is the differential gate between the two
// execution engines: every benchmark in the suite runs once under the
// reference loop and once under the batched SoA engine, with the
// timekeeping tracker and a cache-decay evaluation attached and the
// victim-cache / prefetcher mechanisms rotated across benchmarks, and
// the two sim.Results must be byte-identical in canonical JSON — CPU
// timing, hierarchy counters, predictor tallies, decay results and
// prefetch outputs included.
//
// This gate runs at a reduced reference count to keep its 2x52-run cost
// in check; full corpus-scale anchoring comes for free from the golden
// regression test, whose on-disk entries were recorded under the
// reference loop and are verified under the default (fast) engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"timekeeping/internal/events"
	"timekeeping/internal/sample"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// engineGateOptions attaches every observer the engines must agree on
// and rotates the mechanism under test by benchmark index.
func engineGateOptions(i int) sim.Options {
	opt := sim.Default()
	opt.WarmupRefs = 10_000
	opt.MeasureRefs = 40_000
	opt.Track = true
	opt.DecayIntervals = []uint64{1 << 12, 1 << 15}
	switch i % 4 {
	case 1:
		opt.VictimFilter = sim.VictimDecay
	case 2:
		opt.Prefetcher = sim.PrefetchTK
	case 3:
		opt.Prefetcher = sim.PrefetchNextLine
		opt.VictimFilter = sim.VictimCollins
	}
	// A few set-associative L1 points so the gate is not all
	// direct-mapped.
	if i%5 == 4 {
		opt.Hier.L1.Ways = 2
	}
	return opt
}

func TestEnginesAgreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("2x26 full runs; skipped under -short")
	}
	for i, bench := range workload.Names() {
		i, bench := i, bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			opt := engineGateOptions(i)
			spec := workload.MustProfile(bench)

			ref, err := sim.Run(context.Background(),
				sim.Spec{Workload: spec, Opts: opt, Engine: sim.EngineReference})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sim.Run(context.Background(),
				sim.Spec{Workload: spec, Opts: opt, Engine: sim.EngineFast})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Engine != sim.EngineReference || fast.Engine != sim.EngineFast {
				t.Fatalf("engine labels wrong: ref %q, fast %q", ref.Engine, fast.Engine)
			}

			requireSameJSON(t, bench, ref, fast)
		})
	}
}

// requireSameJSON fails unless the two results are byte-identical in
// canonical JSON (Engine is json:"-", so the label itself is excluded —
// by design: results must be engine-neutral).
func requireSameJSON(t *testing.T, what string, ref, fast sim.Result) {
	t.Helper()
	rb, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := json.MarshalIndent(fast, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, fb) {
		t.Errorf("engines diverge on %s:\nreference: %s\nfast:      %s", what, rb, fb)
	}
}

// gateSchedules are the sampling schedules the fast engine runs, sized
// so the gate's 40K-reference measure budget holds several windows.
var gateSchedules = []struct {
	name   string
	policy sample.Policy
}{
	{"fixed", sample.Policy{DetailedRefs: 1000, WarmRefs: 4000, DetailedWarmRefs: 256}},
	{"target-ci", sample.Policy{DetailedRefs: 1000, WarmRefs: 3000, DetailedWarmRefs: 128, TargetRelCI: 0.01, NominalCPI: 1.5}},
	{"phase", sample.Policy{DetailedRefs: 1000, WarmRefs: 4000, DetailedWarmRefs: 256, Schedule: sample.SchedulePhase, PhaseIntervals: 8}},
}

// TestSampledEnginesAgreeOnCorpus extends the differential gate to
// sampled runs: every benchmark under every schedule the fast engine
// runs, with the same mechanism rotation, must produce byte-identical
// results — estimate included — on both engines.
func TestSampledEnginesAgreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("2x3x26 sampled runs; skipped under -short")
	}
	for i, bench := range workload.Names() {
		i, bench := i, bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			spec := workload.MustProfile(bench)
			for _, sc := range gateSchedules {
				opt := engineGateOptions(i)
				pol := sc.policy
				opt.Sampling = &pol
				ref, err := sim.Run(context.Background(),
					sim.Spec{Workload: spec, Opts: opt, Engine: sim.EngineReference})
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				fast, err := sim.Run(context.Background(),
					sim.Spec{Workload: spec, Opts: opt, Engine: sim.EngineFast})
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				if ref.Estimate == nil || ref.Estimate.Windows < 2 {
					t.Fatalf("%s: reference run measured too few windows: %+v", sc.name, ref.Estimate)
				}
				requireSameJSON(t, bench+"/"+sc.name, ref, fast)
			}
		})
	}
}

// TestAutoEngineRouting pins which engine EngineAuto picks: the fast
// engine for exact runs and for fixed-period, target-CI and phase
// sampling; the reference loop for segment-parallel sampling, event
// capture, explicit audit and TK_AUDIT.
func TestAutoEngineRouting(t *testing.T) {
	if os.Getenv("TK_AUDIT") != "" {
		t.Skip("TK_AUDIT routes every run to the reference engine")
	}
	sampled := func(p sample.Policy) func(*sim.Options) {
		return func(o *sim.Options) { o.Sampling = &p }
	}
	base := sample.Policy{DetailedRefs: 1000, WarmRefs: 3000}
	cases := []struct {
		name string
		env  bool // set TK_AUDIT
		mod  func(*sim.Options)
		want sim.Engine
	}{
		{"exact", false, func(*sim.Options) {}, sim.EngineFast},
		{"fixed", false, sampled(base), sim.EngineFast},
		{"target-ci", false, sampled(sample.Policy{DetailedRefs: 1000, WarmRefs: 3000, TargetRelCI: 0.05}), sim.EngineFast},
		{"phase", false, sampled(sample.Policy{DetailedRefs: 1000, WarmRefs: 3000, Schedule: sample.SchedulePhase, PhaseIntervals: 4}), sim.EngineFast},
		{"segmented", false, sampled(sample.Policy{DetailedRefs: 1000, WarmRefs: 3000, SegmentWindows: 2}), sim.EngineReference},
		{"events", false, func(o *sim.Options) { o.Events = events.NewSink(events.Config{Cap: 64}) }, sim.EngineReference},
		{"audit", false, func(o *sim.Options) { o.Audit = true }, sim.EngineReference},
		{"tk-audit-exact", true, func(*sim.Options) {}, sim.EngineReference},
		{"tk-audit-sampled", true, sampled(base), sim.EngineReference},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.env {
				t.Setenv("TK_AUDIT", "1")
			}
			opt := sim.Default()
			opt.WarmupRefs = 2_000
			opt.MeasureRefs = 20_000
			tc.mod(&opt)
			res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gzip"), Opts: opt})
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != tc.want {
				t.Errorf("auto picked %q, want %q", res.Engine, tc.want)
			}
			_, err = sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("gzip"), Opts: opt, Engine: sim.EngineFast})
			if ok := err == nil; ok != (tc.want == sim.EngineFast) {
				t.Errorf("explicit fast engine: err = %v, want rejection %v", err, tc.want != sim.EngineFast)
			}
		})
	}
}
