package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"timekeeping/internal/sim"
	"timekeeping/pkg/api"
)

// diffJSON compares two values in canonical JSON and describes the first
// difference, or returns "" when they are identical. sim.Result leaves
// the engine out of its JSON, so results of the two engines compare
// equal exactly when every statistic is equal.
func diffJSON(got, want any) string {
	g, err := json.Marshal(got)
	if err != nil {
		return fmt.Sprintf("marshal: %v", err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		return fmt.Sprintf("marshal: %v", err)
	}
	if bytes.Equal(g, w) {
		return ""
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(i-40, 0)
	return fmt.Sprintf("first difference at byte %d: got …%s… want …%s…", i, clip(g, from, i+40), clip(w, from, i+40))
}

func clip(b []byte, from, to int) []byte { return b[min(from, len(b)):min(to, len(b))] }

// diffViews compares a served result with the one expected. The engine
// field is ignored: it is empty by design on answers from the disk tier
// and from a peer's store. A JobView's timestamps, IDs and trace live
// outside ResultView and are never compared.
func diffViews(got, want *api.ResultView) string {
	if got == nil {
		return "response carries no result"
	}
	g, w := *got, *want
	g.Engine, w.Engine = "", ""
	return diffJSON(g, w)
}

// viewOf renders an exact simulation result in its wire shape, field for
// field as tkserve does, so a direct sim.Run can be compared with a
// served answer (the serve workload sends no sampled requests, so the
// estimate view is not rendered). A test holds it equal to an in-process
// server's answers.
func viewOf(r *sim.Result) *api.ResultView {
	h := r.Hier
	l2Acc := h.L2Hits + h.L2Misses
	v := &api.ResultView{
		Bench:     r.Bench,
		Engine:    string(r.Engine),
		IPC:       r.CPU.IPC,
		Insts:     r.CPU.Insts,
		Cycles:    r.CPU.Cycles,
		Refs:      r.CPU.Refs,
		Loads:     r.CPU.Loads,
		Stores:    r.CPU.Stores,
		TotalRefs: r.TotalRefs,
		L1: api.LevelStats{
			Accesses:   h.Accesses,
			Hits:       h.Hits,
			Misses:     h.Misses,
			Writebacks: h.Writebacks,
			MissRate:   h.MissRate(),
		},
		L2: api.LevelStats{
			Accesses:   l2Acc,
			Hits:       h.L2Hits,
			Misses:     h.L2Misses,
			Writebacks: h.L2Writebacks,
			MissRate:   ratio(float64(h.L2Misses), float64(l2Acc)),
		},
		ColdMisses:       h.ColdMisses,
		ConflictMisses:   h.ConflMiss,
		CapacityMisses:   h.CapMiss,
		VictimHits:       h.VictimHits,
		PrefetchesIssued: h.Prefetches,
		PrefetchesUseful: h.PFUseful,
	}
	if r.Victim != nil {
		v.Victim = &api.VictimView{
			Offered:      r.Victim.Offered,
			Admitted:     r.Victim.Admitted,
			Lookups:      r.Victim.Lookups,
			Hits:         r.Victim.Hits,
			FillPerCycle: r.VictimFillPerCycle(),
		}
	}
	if r.PFIssued > 0 || r.PFAddrAcc > 0 || r.PFCoverage > 0 {
		v.Prefetch = &api.PrefetchView{
			Issued:       r.PFIssued,
			Useful:       h.PFUseful,
			AddrAccuracy: r.PFAddrAcc,
			Coverage:     r.PFCoverage,
		}
	}
	if t := r.Tracker; t != nil {
		tv := &api.TrackerView{
			Generations:      t.Generations,
			ZeroLiveAccuracy: t.ZeroLive.Accuracy(),
			ZeroLiveCoverage: t.ZeroLive.Coverage(),
		}
		if t.Live != nil {
			tv.MeanLiveCycles = t.Live.Mean()
		}
		if t.Dead != nil {
			tv.MeanDeadCycles = t.Dead.Mean()
		}
		v.Tracker = tv
	}
	return v
}

// runParallel runs specs on GOMAXPROCS workers and returns results and
// errors in spec order.
func runParallel(specs []sim.Spec) ([]sim.Result, []error) {
	res := make([]sim.Result, len(specs))
	errs := make([]error, len(specs))
	parallel(len(specs), func(i int) { res[i], errs[i] = sim.Run(context.Background(), specs[i]) })
	return res, errs
}

// parallel calls fn(0..n-1) on GOMAXPROCS workers and waits for all.
func parallel(n int, fn func(int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
