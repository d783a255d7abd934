package serve

import (
	"context"
	"net/http"
	"os"
	"testing"

	"timekeeping/pkg/api"
)

// has reports whether list contains v.
func has(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func TestCapabilities(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	c, err := cl.Capabilities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"auto", "fast", "reference"} {
		if !has(c.Engines, eng) {
			t.Errorf("engines %v missing %q", c.Engines, eng)
		}
	}
	if !has(c.Benches, "mcf") || !has(c.Benches, "gcc") {
		t.Errorf("benches %v missing suite members", c.Benches)
	}
	if !has(c.VictimFilters, "decay") || !has(c.Prefetchers, "timekeeping") {
		t.Errorf("mechanisms incomplete: victims %v, prefetchers %v", c.VictimFilters, c.Prefetchers)
	}
	foundFig1 := false
	for _, e := range c.Experiments {
		if e.ID == "fig1" && e.Title != "" {
			foundFig1 = true
		}
	}
	if !foundFig1 {
		t.Errorf("experiments %v missing fig1", c.Experiments)
	}
	if !c.Sampling {
		t.Error("sampling not advertised")
	}
	// This server was started with no events capture, no store, no
	// cluster: the service-state features must read off.
	if c.Events || c.Store || c.Cluster != nil {
		t.Errorf("service-state features wrongly advertised: %+v", c)
	}
}

func TestCapabilitiesAdvertiseEvents(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true})
	c, err := cl.Capabilities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Events {
		t.Error("events capture enabled but not advertised")
	}
}

func TestRunEngineSelection(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	req := fastRun
	req.Engine = "reference"
	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Result == nil || j.Result.Engine != "reference" {
		t.Fatalf("result engine = %+v, want reference", j.Result)
	}

	// The engine is not part of the cache key: the same configuration
	// requested under another engine name is a cache hit, and the view
	// records the engine that actually produced the stored result. (The
	// name is "auto" rather than "fast" so the check also holds under
	// TK_AUDIT, where an explicit fast request is a bad_request.)
	req.Engine = "auto"
	j2, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Cache != api.CacheHit {
		t.Fatalf("engine change broke cache keying: cache = %q, want hit", j2.Cache)
	}
	if j2.Result.Engine != "reference" {
		t.Fatalf("cached result engine = %q, want the producer's (reference)", j2.Result.Engine)
	}
}

func TestRunEngineErrors(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	req := fastRun
	req.Engine = "turbo"
	_, err := cl.Run(context.Background(), req)
	ae := apiError(t, err)
	if ae.HTTPStatus != http.StatusBadRequest || !has(ae.Accepted, "fast") {
		t.Fatalf("unknown engine: got %+v", ae)
	}

	// An explicit fast engine cannot carry reference-only
	// instrumentation (here the segment-parallel schedule, which clones
	// reference instances); the request is rejected up front.
	req = fastRun
	req.Engine = "fast"
	req.Sampling = &api.SamplingPolicy{DetailedRefs: 1000, WarmRefs: 1000, SegmentWindows: 2}
	_, err = cl.Run(context.Background(), req)
	ae = apiError(t, err)
	if ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("fast+segmented sampling: got %+v", ae)
	}
}

// TestRunFastSampled: fixed-period, target-CI and phase sampling run on
// the fast engine, so an explicit fast request carrying them is served.
func TestRunFastSampled(t *testing.T) {
	if os.Getenv("TK_AUDIT") != "" {
		t.Skip("TK_AUDIT forces the reference engine")
	}
	_, _, cl := newTestServer(t, Config{})
	for _, pol := range []*api.SamplingPolicy{
		{DetailedRefs: 500, WarmRefs: 1000},
		{DetailedRefs: 500, WarmRefs: 1000, TargetRelCI: 0.05},
		{DetailedRefs: 500, WarmRefs: 1000, Schedule: "phase", PhaseIntervals: 4},
	} {
		req := fastRun
		req.Engine = "fast"
		req.Sampling = pol
		j, err := cl.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("fast+%+v: %v", *pol, err)
		}
		if j.Result == nil || j.Result.Engine != "fast" || j.Result.Estimate == nil {
			t.Fatalf("fast+%+v: result %+v, want a fast-engine estimate", *pol, j.Result)
		}
	}
}
