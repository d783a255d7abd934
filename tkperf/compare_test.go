package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"timekeeping/internal/serve"
	"timekeeping/internal/sim"
	"timekeeping/internal/simcache"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// TestViewOfMatchesServer holds viewOf equal to what tkserve answers for
// the same run, across every mechanism the serve plan sends.
func TestViewOfMatchesServer(t *testing.T) {
	base := testBase()
	srv := serve.New(serve.Config{Base: base, Workers: 1, Cache: simcache.New()})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for _, m := range append(mechanisms, mechanism{prefetch: "dbcp"}) {
		req := api.RunRequest{Bench: "mcf", Victim: m.victim, Prefetch: m.prefetch, Track: m.track, Seed: 5}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
		}
		var job api.JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		opts, err := requestOptions(base, req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("mcf"), Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffViews(job.Result, viewOf(&res)); d != "" {
			t.Errorf("%+v: served view differs from viewOf: %s", req, d)
		}
	}
}

// TestDiffViews: the engine field is ignored (disk and store answers
// carry none), every statistic is not.
func TestDiffViews(t *testing.T) {
	opts := testBase()
	opts.Track = true
	res, err := sim.Run(context.Background(), sim.Spec{Workload: workload.MustProfile("twolf"), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(&res)
	if want.Engine == "" {
		t.Fatal("a fresh run reports no engine")
	}
	fromDisk := *viewOf(&res)
	fromDisk.Engine = ""
	if d := diffViews(&fromDisk, want); d != "" {
		t.Errorf("an empty engine counted as a difference: %s", d)
	}
	drifted := fromDisk
	drifted.L1.Misses++
	if diffViews(&drifted, want) == "" {
		t.Error("a changed miss count was not reported")
	}
	tracker := *drifted.Tracker
	drifted = fromDisk
	tracker.MeanDeadCycles += 1e-9
	drifted.Tracker = &tracker
	if diffViews(&drifted, want) == "" {
		t.Error("a changed tracker mean was not reported")
	}
	if diffViews(nil, want) == "" {
		t.Error("a missing result was not reported")
	}
}

// TestDiffJSONIgnoresEngine: the engines are compared on statistics.
func TestDiffJSONIgnoresEngine(t *testing.T) {
	opts := testBase()
	spec := workload.MustProfile("ammp")
	fast, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opts, Engine: sim.EngineFast})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opts, Engine: sim.EngineReference})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffJSON(fast, ref); d != "" {
		t.Errorf("engines differ: %s", d)
	}
	ref.CPU.Cycles++
	if diffJSON(fast, ref) == "" {
		t.Error("a changed cycle count was not reported")
	}
}
