package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"

	"timekeeping/internal/experiments"
	"timekeeping/internal/golden"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
)

// smokeBin builds the program's binaries once for every smoke test.
var smokeBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "tkperf-bin")
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", dir+"/", "timekeeping/cmd/tkserve", "timekeeping/cmd/tkexp", "timekeeping/cmd/tksim").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building the binaries: %v\n%s", err, out)
	}
	return dir, nil
})

func TestMain(m *testing.M) {
	code := m.Run()
	if dir, err := smokeBin(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func smokeConfig(t *testing.T) config {
	dir, err := smokeBin()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 3, smoke: true, root: "..", binDir: dir, work: t.TempDir()}
}

func checkReport(t *testing.T, rep *report, err error, layer []string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	for m := range endToEnd {
		if v, ok := rep.e2e[m]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, %v", m, v, ok)
		}
	}
	for _, m := range layer {
		if v, ok := rep.layer[m]; !ok || v <= 0 {
			t.Errorf("per-layer metric %s = %v, %v", m, v, ok)
		}
	}
}

func TestSmokeSweep(t *testing.T) {
	tr := newTracer()
	rep, err := runSweep(smokeConfig(t), tr)
	checkReport(t, rep, err, []string{"sim_mrefs_per_s", "engine.ns_per_ref", "workload.ns_per_ref", "experiments.sims", "l1.accesses", "victim.admit_ratio", "prefetch.useful_ratio"})
}

func TestSmokeSampled(t *testing.T) {
	rep, err := runSampled(smokeConfig(t), newTracer())
	checkReport(t, rep, err, []string{"exact_s", "sampled_s", "refloop.ns_per_ref", "functional.ns_per_ref", "sample.windows", "sample.detailed_share"})
}

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tkserve and starts a two-node fleet")
	}
	rep, err := runServe(smokeConfig(t), newTracer())
	checkReport(t, rep, err, []string{"req_per_s", "hit_p50_ms", "cold_p50_ms", "disk_p50_ms", "proxied_p50_ms"})
	if rep.layer["cluster.fallback"] != 0 || rep.layer["cluster.proxied"] == 0 {
		t.Errorf("cluster counters: proxied %v, fallback %v", rep.layer["cluster.proxied"], rep.layer["cluster.fallback"])
	}
	for _, st := range []string{"ingress", "simulate", "probe_disk", "proxy"} {
		if rep.layer["serve."+st+".p50_ms"] <= 0 {
			t.Errorf("stage %s has no latency", st)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs sampled traced at smoke
// scale and fills in the layers it does not exercise, as a traced run
// does: every per-layer metric must then be present.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a two-node fleet")
	}
	cfg := smokeConfig(t)
	rep, err := runSampled(cfg, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := fillLayers(cfg, "sampled", rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	for m := range perLayer {
		if _, ok := rep.layer[m]; !ok {
			t.Errorf("per-layer metric %s is missing", m)
		}
	}
}

// TestSweepChecksCatchDrift runs the sweep's output checks on one
// default-scale point held in a runner's cache: the true result passes
// the golden and reference checks, a perturbed one fails both, and a
// point the cache lacks fails as not simulated.
func TestSweepChecksCatchDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates at default scale")
	}
	opts := golden.CorpusOptions() // the sweep's base config at the corpus seed
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("twolf"), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	check := func(res sim.Result, points []sweepPoint) int {
		r := &experiments.Runner{Opts: sim.Default(), Benches: []string{"twolf"}, Cache: simcache.New()}
		_, _, err := r.Cache.Do(context.Background(), simcache.Key("twolf", opts), func(context.Context) (sim.Result, error) { return res, nil })
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		checkSweep(config{seed: corpusSeed, root: ".."}, nil, 0, rep, r, points)
		return rep.failed
	}
	base := []sweepPoint{{"base", "twolf"}}
	if n := check(res, base); n != 0 {
		t.Fatalf("the true result failed %d checks", n)
	}
	perturbed := res
	perturbed.Hier.Misses++
	if n := check(perturbed, base); n != 2 {
		t.Errorf("a perturbed result failed %d checks, want 2 (golden and reference)", n)
	}
	if n := check(res, []sweepPoint{{"base", "twolf"}, {"perfect", "twolf"}}); n != 1 {
		t.Errorf("a point missing from the batch failed %d checks, want 1", n)
	}
}
