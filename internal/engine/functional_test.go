package engine_test

import (
	"context"
	"reflect"
	"testing"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/decay"
	"timekeeping/internal/engine"
	"timekeeping/internal/hier"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
	"timekeeping/internal/workload"
)

// stretch is one leg of a sampled schedule: refs references through the
// functional path at the given nominal CPI, or through the detailed path
// when functional is false.
type stretch struct {
	functional bool
	refs       uint64
	cpi        float64
}

// sampledSchedule alternates functional warming (at several nominal
// rates, 0 meaning the 1.0 default) with detailed windows of different
// lengths, so every transition between the two paths is exercised.
var sampledSchedule = []stretch{
	{true, 6000, 0},
	{false, 1500, 0},
	{true, 4000, 1.5},
	{false, 2500, 0},
	{true, 9000, 0.7},
	{false, 600, 0},
	{false, 3000, 0},
	{true, 5000, 3},
	{false, 2000, 0},
}

// attachment installs one mechanism on both paths and reports its
// outputs for comparison.
type attachment struct {
	name string
	ref  func(h *hier.Hierarchy) (report func() any)
	fast func(e *engine.Engine) (report func() any)
}

var functionalAttachments = []attachment{
	{"none",
		func(*hier.Hierarchy) func() any { return func() any { return nil } },
		func(*engine.Engine) func() any { return func() any { return nil } }},
	{"tracker",
		func(h *hier.Hierarchy) func() any {
			t := core.NewTracker(h.L1().NumFrames())
			h.AddObserver(t)
			return func() any { return t.Metrics() }
		},
		func(e *engine.Engine) func() any {
			t := core.NewFastTracker(e.NumFrames())
			e.AttachTracker(t)
			return func() any { return t.Metrics() }
		}},
	{"decay",
		func(h *hier.Hierarchy) func() any {
			d := decay.New(h.L1().NumFrames(), decay.DefaultIntervals)
			h.AddObserver(d)
			return func() any { return d.Results() }
		},
		func(e *engine.Engine) func() any {
			d := decay.New(e.NumFrames(), decay.DefaultIntervals)
			e.AttachDecay(d)
			return func() any { return d.Results() }
		}},
	{"victim",
		func(h *hier.Hierarchy) func() any {
			v := victim.New(32, victim.NewDecayFilter())
			h.AttachVictim(v)
			return func() any { return v.Stats() }
		},
		func(e *engine.Engine) func() any {
			v := victim.New(32, victim.NewDecayFilter())
			e.AttachVictim(v)
			return func() any { return v.Stats() }
		}},
	{"timekeeping",
		func(h *hier.Hierarchy) func() any {
			p := prefetch.NewTimekeeping(prefetch.DefaultConfig(), core.NewCorrTable(core.DefaultCorrConfig()), h.L1())
			h.AttachPrefetcher(p)
			return func() any { return []any{p.Timeliness(), p.Issued(), p.Scheduled(), p.Coverage()} }
		},
		func(e *engine.Engine) func() any {
			p := prefetch.NewTimekeeping(prefetch.DefaultConfig(), core.NewCorrTable(core.DefaultCorrConfig()), e.L1())
			e.AttachTimekeeping(p)
			return func() any { return []any{p.Timeliness(), p.Issued(), p.Scheduled(), p.Coverage()} }
		}},
	{"dbcp",
		func(h *hier.Hierarchy) func() any {
			p := prefetch.NewDBCP(prefetch.DefaultConfig(), 1<<14, h.L1())
			h.AttachPrefetcher(p)
			return func() any { return []any{p.Timeliness(), p.Issued()} }
		},
		func(e *engine.Engine) func() any {
			p := prefetch.NewDBCP(prefetch.DefaultConfig(), 1<<14, e.L1())
			e.AttachDBCP(p)
			return func() any { return []any{p.Timeliness(), p.Issued()} }
		}},
	{"nextline",
		func(h *hier.Hierarchy) func() any {
			p := prefetch.NewNextLine(prefetch.DefaultConfig(), h.L1())
			h.AttachPrefetcher(p)
			return func() any { return []any{p.Timeliness(), p.Issued()} }
		},
		func(e *engine.Engine) func() any {
			p := prefetch.NewNextLine(prefetch.DefaultConfig(), e.L1())
			e.AttachNextLine(p)
			return func() any { return []any{p.Timeliness(), p.Issued()} }
		}},
}

// TestFunctionalMatchesReference drives one reference slice through the
// same alternation of functional-warming and detailed stretches on the
// engine and on the reference cpu.Model/hier.Hierarchy pair, once bare
// and once per attachment, and requires identical CPU snapshots,
// hierarchy counters and mechanism outputs after every stretch.
func TestFunctionalMatchesReference(t *testing.T) {
	var total uint64
	for _, st := range sampledSchedule {
		total += st.refs
	}
	refs := make([]trace.Ref, total)
	spec := workload.MustProfile("twolf")
	s := spec.Stream(1)
	for i := range refs {
		if !s.Next(&refs[i]) {
			t.Fatalf("stream ended at %d", i)
		}
	}

	ctx := context.Background()
	for _, a := range functionalAttachments {
		t.Run(a.name, func(t *testing.T) {
			h := hier.New(hier.DefaultConfig())
			refReport := a.ref(h)
			m := cpu.New(cpu.DefaultConfig(), h)
			e := engine.New(engine.Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()})
			fastReport := a.fast(e)

			rs, fs := &trace.SliceStream{Refs: refs}, &trace.SliceStream{Refs: refs}
			for i, st := range sampledSchedule {
				var rr, fr cpu.Result
				var rerr, ferr error
				if st.functional {
					rr, rerr = m.RunFunctional(ctx, rs, st.refs, st.cpi)
					fr, ferr = e.RunFunctional(ctx, fs, st.refs, st.cpi)
				} else {
					rr, rerr = m.RunContext(ctx, rs, st.refs)
					fr, ferr = e.RunContext(ctx, fs, st.refs)
				}
				if rerr != nil || ferr != nil {
					t.Fatalf("stretch %d: errors %v / %v", i, rerr, ferr)
				}
				if rr != fr || m.Snapshot() != e.Snapshot() || m.Now() != e.Now() {
					t.Fatalf("stretch %d (%+v): CPU diverges\nref:  %+v\nfast: %+v", i, st, rr, fr)
				}
				if h.Stats() != e.Stats() {
					t.Fatalf("stretch %d (%+v): hierarchy diverges\nref:  %+v\nfast: %+v", i, st, h.Stats(), e.Stats())
				}
				if r, f := refReport(), fastReport(); !reflect.DeepEqual(r, f) {
					t.Fatalf("stretch %d (%+v): %s outputs diverge\nref:  %+v\nfast: %+v", i, st, a.name, r, f)
				}
			}
		})
	}
}
