package main

import (
	"context"
	"testing"

	"timekeeping/internal/serve"
	"timekeeping/internal/sim"
)

func testBase() sim.Options {
	base := sim.Default()
	base.WarmupRefs, base.MeasureRefs = serveWarmup, serveRefs
	return base
}

// tkexpRate is the repeat rate the sweep's figures show: fig1, fig13 and
// fig19 over the 26 benchmarks look up 182 distinct results 572 times.
const tkexpRate = 572.0 / 182

func TestTkexpLookupsPerKey(t *testing.T) {
	got, err := tkexpLookupsPerKey()
	if err != nil {
		t.Fatal(err)
	}
	if got != tkexpRate {
		t.Errorf("%v lookups per key, want %v", got, tkexpRate)
	}
}

// TestServePlanShape pins the generator's ownership split and repeat
// ratio for a fixed seed, and that a seed fixes the plan.
func TestServePlanShape(t *testing.T) {
	const combos = 60
	p, err := newServePlan(7, combos, nodeURLs, testBase(), tkexpRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.keys) != 2*combos {
		t.Fatalf("%d keys, want %d", len(p.keys), 2*combos)
	}
	ownedA := 0
	seen := map[string]bool{}
	for i, k := range p.keys {
		if seen[k.key] {
			t.Fatalf("key %d repeats an earlier key", i)
		}
		seen[k.key] = true
		if k.ownerA {
			ownedA++
		}
		// Keys come in pairs per (bench, mechanism), one per node.
		if i%2 == 1 && k.ownerA == p.keys[i-1].ownerA {
			t.Errorf("keys %d and %d are owned by the same node", i-1, i)
		}
	}
	if ownedA != combos {
		t.Errorf("node A owns %d of %d keys, want half", ownedA, len(p.keys))
	}
	// 120 keys at 572/182 lookups each: 377 requests.
	if len(p.seq) != 377 {
		t.Fatalf("%d requests, want 377", len(p.seq))
	}
	first := p.firstTouches()
	repeats := 0
	for i, k := range p.seq {
		if first[k] < 0 || first[k] > i {
			t.Fatalf("request %d precedes its key's first touch", i)
		}
		if first[k] != i {
			repeats++
		}
	}
	if repeats != 377-120 {
		t.Errorf("%d repeats in %d requests, want %d", repeats, len(p.seq), 377-120)
	}

	again, err := newServePlan(7, combos, nodeURLs, testBase(), tkexpRate)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newServePlan(8, combos, nodeURLs, testBase(), tkexpRate)
	if err != nil {
		t.Fatal(err)
	}
	sameSeq := func(a, b *servePlan) bool {
		for i := range a.seq {
			if a.keys[a.seq[i]].key != b.keys[b.seq[i]].key {
				return false
			}
		}
		return true
	}
	if !sameSeq(p, again) {
		t.Error("the same seed gave a different plan")
	}
	if sameSeq(p, other) {
		t.Error("a different seed gave the same plan")
	}
}

// TestRequestOptionsMatchServer holds the plan's keys equal to the keys
// tkserve itself computes for the same requests, so ownership and the
// direct re-runs use exactly the options the nodes resolve.
func TestRequestOptionsMatchServer(t *testing.T) {
	base := testBase()
	srv := serve.New(serve.Config{Base: base, Workers: 1})
	defer srv.Shutdown(context.Background())
	p, err := newServePlan(3, 2*len(mechanisms), nodeURLs, base, tkexpRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range p.keys {
		want, err := srv.CacheKey(k.req)
		if err != nil {
			t.Fatal(err)
		}
		if k.key != want {
			t.Errorf("%+v: plan key %s, server key %s", k.req, k.key, want)
		}
	}
}

func TestClassOf(t *testing.T) {
	for _, tc := range []struct {
		ownerA, first, restarted bool
		want                     string
	}{
		{true, true, false, classCold},
		{true, true, true, classDisk},
		{true, false, false, classHit},
		{true, false, true, classHit},
		{false, true, false, classProxiedFirst},
		{false, false, true, classProxied},
	} {
		if got := classOf(tc.ownerA, tc.first, tc.restarted); got != tc.want {
			t.Errorf("classOf(%v, %v, %v) = %s, want %s", tc.ownerA, tc.first, tc.restarted, got, tc.want)
		}
	}
}
