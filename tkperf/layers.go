package main

import (
	"context"
	"fmt"
	"time"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/engine"
	"timekeeping/internal/hier"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/telemetry"
	"timekeeping/internal/trace"
	"timekeeping/internal/victim"
	"timekeeping/internal/workload"
)

// The layer probes below run only in the traced run. Each one times a
// layer's public entry points from outside, inside the benchmark's own
// spans, and derives its per-layer metric from those spans.

// layerReps is how many interleaved repetitions each probe takes; the
// median repetition is reported.
const layerReps = 3

// collectStreams pre-generates refs references of each bench at seed, so
// the simulator probes replay identical input without paying for
// generation.
func collectStreams(benches []string, seed uint64, refs int) [][]trace.Ref {
	out := make([][]trace.Ref, len(benches))
	for i, b := range benches {
		spec := workload.MustProfile(b)
		out[i] = trace.Collect(spec.Stream(seed), refs)
	}
	return out
}

// timeOver runs fn once per stream inside one span and returns ns per
// reference over all streams.
func timeOver(tr *tracer, parent int, layer, name string, streams [][]trace.Ref, fn func(s *trace.SliceStream, n uint64) error) (float64, error) {
	var refs int
	id := tr.begin(parent, layer, name)
	for _, refsOf := range streams {
		s := &trace.SliceStream{Refs: refsOf}
		if err := fn(s, uint64(len(refsOf))); err != nil {
			tr.end(id)
			return 0, err
		}
		refs += len(refsOf)
	}
	d := tr.end(id)
	return ratio(float64(d), float64(refs)), nil
}

// probeWorkload drains each bench's stream through Next and returns ns
// per reference.
func probeWorkload(tr *tracer, parent int, benches []string, seed uint64, refs int) float64 {
	var per []float64
	for rep := 0; rep < layerReps; rep++ {
		var n int
		id := tr.begin(parent, "workload", "Spec.Stream+Next")
		for _, b := range benches {
			spec := workload.MustProfile(b)
			s := spec.Stream(seed)
			var r trace.Ref
			for i := 0; i < refs && s.Next(&r); i++ {
				n++
			}
		}
		per = append(per, ratio(float64(tr.end(id)), float64(n)))
	}
	return median(per)
}

// engineVariants are the fast-engine configurations the engine probe
// times: the bare engine and one attachment at a time.
var engineVariants = []struct {
	name   string
	attach func(e *engine.Engine)
}{
	{"engine", func(*engine.Engine) {}},
	{"tracker", func(e *engine.Engine) { e.AttachTracker(core.NewFastTracker(e.NumFrames())) }},
	{"victim", func(e *engine.Engine) { e.AttachVictim(victim.New(32, victim.NewDecayFilter())) }},
	{"tkpf", func(e *engine.Engine) {
		e.AttachTimekeeping(prefetch.NewTimekeeping(prefetch.DefaultConfig(), core.NewCorrTable(core.DefaultCorrConfig()), e.L1()))
	}},
	{"dbcp", func(e *engine.Engine) {
		e.AttachDBCP(prefetch.NewDBCP(prefetch.DefaultConfig(), prefetch.DBCPEntries, e.L1()))
	}},
}

// probeEngine times engine.New + Engine.Run over pre-collected streams
// for each variant (all variants when attachments is true, else the bare
// engine only), repetitions interleaved. It returns ns per reference by
// variant name.
func probeEngine(tr *tracer, parent int, streams [][]trace.Ref, attachments bool) (map[string]float64, error) {
	variants := engineVariants
	if !attachments {
		variants = variants[:1]
	}
	per := make(map[string][]float64)
	ecfg := engine.Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	for rep := 0; rep < layerReps; rep++ {
		for _, v := range variants {
			ns, err := timeOver(tr, parent, "engine", "New+Run "+v.name, streams, func(s *trace.SliceStream, n uint64) error {
				e := engine.New(ecfg)
				v.attach(e)
				_, err := e.Run(context.Background(), s, n)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("engine probe %s: %w", v.name, err)
			}
			per[v.name] = append(per[v.name], ns)
		}
	}
	out := make(map[string]float64, len(per))
	for k, xs := range per {
		out[k] = median(xs)
	}
	return out, nil
}

// probeRefLoop times the reference model, cpu.New(cfg, hier.New(...)) +
// RunContext, and its functional-warming path, Model.RunFunctional.
func probeRefLoop(tr *tracer, parent int, streams [][]trace.Ref) (detailed, functional float64, err error) {
	var det, fun []float64
	for rep := 0; rep < layerReps; rep++ {
		ns, err := timeOver(tr, parent, "cpu/hier", "New+RunContext", streams, func(s *trace.SliceStream, n uint64) error {
			m := cpu.New(cpu.DefaultConfig(), hier.New(hier.DefaultConfig()))
			_, err := m.RunContext(context.Background(), s, n)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		det = append(det, ns)
		ns, err = timeOver(tr, parent, "cpu/hier", "New+RunFunctional", streams, func(s *trace.SliceStream, n uint64) error {
			m := cpu.New(cpu.DefaultConfig(), hier.New(hier.DefaultConfig()))
			_, err := m.RunFunctional(context.Background(), s, n, 1)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		fun = append(fun, ns)
	}
	return median(det), median(fun), nil
}

// probeSimcacheHit times Store.Do on a key already present, in µs.
func probeSimcacheHit(tr *tracer, parent int, res sim.Result) float64 {
	const ops = 20000
	st := simcache.New()
	key := simcache.Key(res.Bench, sim.Default())
	compute := func(context.Context) (sim.Result, error) { return res, nil }
	if _, _, err := st.Do(context.Background(), key, compute); err != nil {
		return 0
	}
	var per []float64
	for rep := 0; rep < layerReps; rep++ {
		id := tr.begin(parent, "simcache", "Do (hit)")
		for i := 0; i < ops; i++ {
			_, _, _ = st.Do(context.Background(), key, compute)
		}
		per = append(per, float64(tr.end(id))/ops/float64(time.Microsecond))
	}
	return median(per)
}

// probeTelemetry times trace/span ID minting and span recording, in ns
// per call.
func probeTelemetry(tr *tracer, parent int) (idNS, spanNS float64) {
	const ops = 20000
	var ids, spans []float64
	for rep := 0; rep < layerReps; rep++ {
		id := tr.begin(parent, "telemetry", "NewTraceID+NewSpanID")
		for i := 0; i < ops; i++ {
			_ = telemetry.NewTraceID()
			_ = telemetry.NewSpanID()
		}
		ids = append(ids, float64(tr.end(id))/ops)

		t := telemetry.New("", "", "bench")
		now := time.Now()
		id = tr.begin(parent, "telemetry", "Trace.Span")
		for i := 0; i < ops; i++ {
			t.Span("resolve", now, now, "outcome", "hit")
		}
		spans = append(spans, float64(tr.end(id))/ops)
	}
	return median(ids), median(spans)
}

// probeBenches are the benches the simulator layer probes replay (the
// tkbench set's extremes: compute-bound, pointer-chasing, streaming).
var probeBenches = []string{"twolf", "mcf", "swim", "gcc"}

// probeSimulator runs the simulator probes and records their metrics:
// workload and bare engine always; then the engine attachments, which
// the sweep exercises (attachments true), or else the reference loop and
// functional warming, which sampled exercises.
func probeSimulator(cfg config, tr *tracer, parent int, rep *report, attachments bool) error {
	refs := 250_000
	if cfg.smoke {
		refs = 20_000
	}
	rep.layer["workload.ns_per_ref"] = probeWorkload(tr, parent, probeBenches, cfg.seed, refs)
	streams := collectStreams(probeBenches, cfg.seed, refs)
	ns, err := probeEngine(tr, parent, streams, attachments)
	if err != nil {
		return err
	}
	// Each attachment's cost is its time minus the bare engine's.
	rep.layer["engine.ns_per_ref"] = ns["engine"]
	for _, v := range engineVariants[1:] {
		if x, ok := ns[v.name]; ok {
			rep.layer["engine."+v.name+"_ns_per_ref"] = x - ns["engine"]
		}
	}
	if attachments {
		return nil
	}
	det, fun, err := probeRefLoop(tr, parent, streams)
	if err != nil {
		return err
	}
	rep.layer["refloop.ns_per_ref"] = det
	rep.layer["functional.ns_per_ref"] = fun
	return nil
}
