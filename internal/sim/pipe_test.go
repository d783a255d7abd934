package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"timekeeping/internal/obs"
	"timekeeping/internal/sample"
	"timekeeping/internal/workload"
)

// producerStacks returns the stacks of every live goroutine running a
// stream pipe's producer.
func producerStacks() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "trace.(*Pipe).produce") {
			out = append(out, g)
		}
	}
	return out
}

// requireNoProducers fails if a pipe producer outlives its run. Close
// has waited for the producer to finish; the goroutine itself may need
// a moment more to leave the runtime's list.
func requireNoProducers(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := producerStacks()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d stream producers outlived the run:\n%s", what, len(left), left[0])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineStopsProducer: no producer goroutine survives Run after a
// normal end, a mid-run context cancellation, a target-CI early stop or
// a run error.
func TestPipelineStopsProducer(t *testing.T) {
	spec := workload.MustProfile("twolf")
	requireNoProducers(t, "before the runs")

	opt := quick()
	if _, err := run(context.Background(), Spec{Workload: spec, Opts: opt}, true); err != nil {
		t.Fatal(err)
	}
	requireNoProducers(t, "normal end")

	// Cancel once the run has made progress: the producer is then
	// parked ahead of a consumer that stops mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	long := quick()
	long.MeasureRefs = 1 << 40
	long.Progress = &obs.Progress{}
	errc := make(chan error, 1)
	go func() {
		_, err := run(ctx, Spec{Workload: spec, Opts: long}, true)
		errc <- err
	}()
	for long.Progress.Done() < 50_000 {
		select {
		case err := <-errc:
			t.Fatalf("long run ended before it was cancelled: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	requireNoProducers(t, "context cancel")

	ci := quick()
	ci.MeasureRefs = 400_000
	ci.Sampling = sample.DefaultPolicy()
	ci.Sampling.TargetRelCI = 0.5 // loose: met at MinWindows
	ci.Sampling.MinWindows = 2
	res, err := run(context.Background(), Spec{Workload: spec, Opts: ci}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate == nil || !res.Estimate.TargetMet {
		t.Fatalf("target-CI run did not stop early: %+v", res.Estimate)
	}
	requireNoProducers(t, "target-CI early stop")

	bad := quick()
	bad.VictimFilter = "bogus"
	if _, err := run(context.Background(), Spec{Workload: spec, Opts: bad}, true); err == nil {
		t.Fatal("unknown victim filter accepted")
	}
	requireNoProducers(t, "run error")
}

// canonicalJSON renders a result the way the differential gates compare
// them.
func canonicalJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPipelineMatchesInline: for every benchmark, exact and under
// fixed-period sampling, a pipelined run and an inline run give
// byte-identical results in canonical JSON.
func TestPipelineMatchesInline(t *testing.T) {
	for i, bench := range workload.Names() {
		spec := workload.MustProfile(bench)
		opt := Default()
		opt.WarmupRefs = 10_000
		opt.MeasureRefs = 40_000
		opt.Track = true
		switch i % 3 {
		case 1:
			opt.VictimFilter = VictimDecay
		case 2:
			opt.Prefetcher = PrefetchTK
		}
		sopt := opt
		sopt.Sampling = &sample.Policy{DetailedRefs: 1000, WarmRefs: 4000, DetailedWarmRefs: 256}
		for _, o := range []Options{opt, sopt} {
			s := Spec{Workload: spec, Opts: o}
			inline, err := run(context.Background(), s, false)
			if err != nil {
				t.Fatalf("%s inline: %v", bench, err)
			}
			piped, err := run(context.Background(), s, true)
			if err != nil {
				t.Fatalf("%s pipelined: %v", bench, err)
			}
			if a, b := canonicalJSON(t, inline), canonicalJSON(t, piped); !bytes.Equal(a, b) {
				t.Errorf("%s (sampled %v): pipelined run differs from inline:\ninline:    %s\npipelined: %s",
					bench, o.Sampling != nil, a, b)
			}
		}
	}
	requireNoProducers(t, "after the corpus")
}

// TestPipelineNeverTruncatesSampledRun: a sampling schedule consumes its
// own policy warm-up beyond WarmupRefs+MeasureRefs, so read-ahead must
// never stop at the run's budget. A one-plus-one-reference sampled run
// (tksim -bench eon -warmup 1 -refs 1 -seed 8 -sample) must measure its
// first detailed window, pipelined or not.
func TestPipelineNeverTruncatesSampledRun(t *testing.T) {
	opt := Default()
	opt.WarmupRefs, opt.MeasureRefs, opt.Seed = 1, 1, 8
	opt.Sampling = sample.DefaultPolicy()
	s := Spec{Workload: workload.MustProfile("eon"), Opts: opt}
	inline, err := run(context.Background(), s, false)
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	piped, err := run(context.Background(), s, true)
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	if piped.Estimate == nil || piped.Estimate.Windows < 1 {
		t.Fatalf("pipelined run measured no window: %+v", piped.Estimate)
	}
	if !bytes.Equal(canonicalJSON(t, inline), canonicalJSON(t, piped)) {
		t.Fatal("pipelined tiny sampled run differs from inline")
	}
	requireNoProducers(t, "tiny sampled run")
}

// TestReadAheadRule pins when Run pipelines: only with a spare CPU and a
// budget beyond one batch.
func TestReadAheadRule(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	opt := Default()
	if !readAhead(opt) {
		t.Error("default-scale run not pipelined at GOMAXPROCS=2")
	}
	small := opt
	small.WarmupRefs, small.MeasureRefs = 1, 1
	if readAhead(small) {
		t.Error("1+1-reference run pipelined")
	}
	runtime.GOMAXPROCS(1)
	if readAhead(opt) {
		t.Error("run pipelined at GOMAXPROCS=1")
	}
}
