package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"timekeeping/internal/sim"
	"timekeeping/internal/store"
	"timekeeping/internal/workload"
	"timekeeping/pkg/api"
)

// The fleet's node URLs are fixed: the ring hashes them, so fixed URLs
// give the same ownership, and so the same class mix, on every run.
const (
	nodeA = "http://127.0.0.1:19471"
	nodeB = "http://127.0.0.1:19472"
)

var nodeURLs = []string{nodeA, nodeB}

// The nodes' default simulation scale: a cold run takes tens of
// milliseconds.
const (
	serveWarmup = 20_000
	serveRefs   = 40_000
)

const (
	serveClients  = 2  // closed-loop clients, all talking to node A
	serveRestarts = 21 // restarts over the populated stores; setup_s is their median
	traceSamples  = 30 // hit jobs whose /trace the traced run reads
)

// runServe drives a two-node tkserve fleet. Phase a runs the plan on
// empty stores. Then both nodes get SIGTERM and restart over the same
// stores (several times, to time set-up), and phase b replays the plan.
func runServe(cfg config, tr *tracer) (*report, error) {
	if cfg.binDir == "" {
		return nil, errors.New("-bin is required")
	}
	base := sim.Default()
	base.WarmupRefs, base.MeasureRefs = serveWarmup, serveRefs
	combos, restarts := max(int(cfg.seconds*40), 2), serveRestarts
	if cfg.smoke {
		combos, restarts = 4, 2
	}
	lookupsPerKey, err := tkexpLookupsPerKey()
	if err != nil {
		return nil, fmt.Errorf("measuring the tkexp repeat rate: %w", err)
	}
	plan, err := newServePlan(cfg.seed, combos, nodeURLs, base, lookupsPerKey)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "serve")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	f, err := newFleet(cfg.bin("tkserve"), dir)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	rep := newReport()
	root := tr.begin(0, "bench", "serve")
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()
	client := api.NewClient(nodeA, hc)

	// Phase a: the mix on empty stores.
	if _, err := f.start(); err != nil {
		return nil, err
	}
	span := tr.begin(root, "bench", "phase a")
	outA, timeA := drive(ctx, client, plan, false, tr, span)
	tr.end(span)
	countersA, err := scrapeCounters(ctx, hc)
	if err != nil {
		return nil, err
	}
	var loadA *api.LoadReport
	if tr != nil {
		if loadA, err = client.Load(ctx); err != nil {
			return nil, err
		}
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := probeStore(tr, root, rep, plan, f.nodes[0].storeDir, filepath.Join(dir, "scratch")); err != nil {
			return nil, err
		}
	}

	// Restarts over the populated stores.
	var setups []float64
	for i := 0; i < restarts; i++ {
		span := tr.begin(root, "tkserve", "restart")
		d, err := f.start()
		tr.end(span)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < restarts-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
	}

	// Phase b: the same plan over the restarted nodes.
	span = tr.begin(root, "bench", "phase b")
	outB, timeB := drive(ctx, client, plan, true, tr, span)
	tr.end(span)
	countersB, err := scrapeCounters(ctx, hc)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := probeServeTelemetry(ctx, tr, root, rep, client, hc, plan, outB, loadA); err != nil {
			return nil, err
		}
	}
	if err := f.stop(); err != nil {
		return nil, err
	}

	// End-to-end metrics and failure accounting.
	lat := map[string][]float64{}
	var overhead []float64
	for _, out := range [][]served{outA, outB} {
		for _, s := range out {
			rep.attempted++
			switch {
			case s.err != nil:
				rep.fail("request %s: %v", s.class, s.err)
			case s.job.Cache != wantCache[s.class]:
				rep.fail("request for %s (%s): cache %q, want %q", s.job.Target, s.class, s.job.Cache, wantCache[s.class])
			default:
				lat[s.class] = append(lat[s.class], ms(s.lat))
				if s.class == classHit {
					overhead = append(overhead, ms(s.lat)-s.job.WallMS)
				}
			}
		}
	}
	if n := countersA.fallback + countersB.fallback; n > 0 {
		rep.failed += int(n)
		fmt.Fprintf(os.Stderr, "tkperf: FAIL: %d requests fell back to local compute (cluster_fallback_total)\n", n)
	}
	rep.e2e["wall_s"] = (timeA.paced + timeB.paced).Seconds()
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["peak_rss_mb"] = f.peakRSSMB()
	rep.layer["req_per_s"] = float64(len(plan.seq)) / timeA.wall.Seconds()
	rep.layer["hit_p50_ms"] = quantile(lat[classHit], 0.50)
	rep.layer["hit_p99_ms"] = quantile(lat[classHit], 0.99)
	rep.layer["cold_p50_ms"] = quantile(lat[classCold], 0.50)
	rep.layer["cold_p90_ms"] = quantile(lat[classCold], 0.90)
	rep.layer["disk_p50_ms"] = quantile(lat[classDisk], 0.50)
	rep.layer["proxied_p50_ms"] = quantile(lat[classProxied], 0.50)
	rep.layer["proxied_p99_ms"] = quantile(lat[classProxied], 0.99)
	fmt.Fprintf(os.Stderr, "tkperf: serve: %d keys, %d requests per phase, samples: hit %d cold %d disk %d proxied %d\n",
		len(plan.keys), len(plan.seq), len(lat[classHit]), len(lat[classCold]), len(lat[classDisk]), len(lat[classProxied]))

	// Every served result must equal a direct sim.Run of its options.
	span = tr.begin(root, "sim", "direct recompute")
	specs := make([]sim.Spec, len(plan.keys))
	for i, k := range plan.keys {
		specs[i] = sim.Spec{Workload: workload.MustProfile(k.req.Bench), Opts: k.opts}
	}
	direct, errs := runParallel(specs)
	tr.end(span)
	for i := range plan.keys {
		if errs[i] != nil {
			rep.attempted++
			rep.fail("direct run %s: %v", plan.keys[i].req.Bench, errs[i])
		}
	}
	for _, out := range [][]served{outA, outB} {
		for _, s := range out {
			if s.err != nil || errs[s.key] != nil {
				continue
			}
			if d := diffViews(s.job.Result, viewOf(&direct[s.key])); d != "" {
				rep.fail("served %s (%s) differs from a direct run: %s", s.job.Target, s.job.Cache, d)
			}
		}
	}

	if tr != nil {
		rep.layer["cluster.proxied"] = float64(countersA.proxied + countersB.proxied)
		rep.layer["cluster.fallback"] = float64(countersA.fallback + countersB.fallback)
		rep.layer["serve.http_overhead_ms"] = median(overhead)
		rep.layer["simcache.hit_us"] = probeSimcacheHit(tr, root, direct[0])
		rep.layer["telemetry.id_ns"], rep.layer["telemetry.span_ns"] = probeTelemetry(tr, root)
	}
	return rep, nil
}

// served is one request's outcome.
type served struct {
	key   int    // index into the plan's keys
	class string // what the plan intends
	lat   time.Duration
	job   *api.JobView
	err   error
}

// drive sends the plan's requests to node A from serveClients
// closed-loop clients, in plan order. A repeat whose first touch is
// still in flight waits for it, so every request's cache outcome is the
// one its class intends. It returns the outcomes in plan order and the
// phase's timing.
func drive(ctx context.Context, c *api.Client, p *servePlan, restarted bool, tr *tracer, parent int) ([]served, phaseTime) {
	first := p.firstTouches()
	done := make([]chan struct{}, len(p.keys))
	for i := range done {
		done[i] = make(chan struct{})
	}
	out := make([]served, len(p.seq))
	doneAt := make([]time.Duration, len(p.seq))
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.seq) {
					return
				}
				k := p.seq[i]
				isFirst := first[k] == i
				if !isFirst {
					select {
					case <-done[k]:
					case <-ctx.Done():
					}
				}
				s := served{key: k, class: classOf(p.keys[k].ownerA, isFirst, restarted)}
				span := tr.begin(parent, "pkg/api", "Client.Run "+s.class)
				start := time.Now()
				s.job, s.err = c.Run(ctx, p.keys[k].req)
				s.lat = time.Since(start)
				tr.end(span)
				doneAt[completed.Add(1)-1] = time.Since(t0)
				out[i] = s
				if isFirst {
					close(done[k])
				}
			}
		}()
	}
	wg.Wait()
	return out, phaseTimeOf(doneAt)
}

// paceChunk is how many requests, in completion order, make one chunk
// of a phase for phaseTime.paced.
const paceChunk = 100

// phaseTime is a phase's timing: its wall time, and its paced time, the
// number of chunks of paceChunk requests times the median chunk's time.
// Requests are in a seeded order with first touches spread over it, so
// chunks carry much the same mix; a burst of host contention that slows
// one chunk moves the paced time little.
type phaseTime struct{ wall, paced time.Duration }

// phaseTimeOf computes a phase's timing from the offsets, from the
// phase's start, at which its requests completed.
func phaseTimeOf(doneAt []time.Duration) phaseTime {
	if len(doneAt) == 0 {
		return phaseTime{}
	}
	slices.Sort(doneAt)
	t := phaseTime{wall: doneAt[len(doneAt)-1], paced: doneAt[len(doneAt)-1]}
	var chunks []float64
	var prev time.Duration
	for i := paceChunk - 1; i < len(doneAt); i += paceChunk {
		chunks = append(chunks, float64(doneAt[i]-prev))
		prev = doneAt[i]
	}
	if len(chunks) > 0 {
		t.paced = time.Duration(median(chunks) * float64(len(doneAt)) / paceChunk)
	}
	return t
}

// counters are node A's cluster routing counters from /metrics.
type counters struct{ proxied, fallback uint64 }

func scrapeCounters(ctx context.Context, hc *http.Client) (counters, error) {
	var c counters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nodeA+"/metrics", nil)
	if err != nil {
		return c, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "cluster_proxied_total":
			dst = &c.proxied
		case "cluster_fallback_total":
			dst = &c.fallback
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("/metrics %s: %w", name, err)
		}
		*dst = uint64(v)
		found++
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if found != 2 {
		return c, errors.New("/metrics lacks cluster_proxied_total or cluster_fallback_total")
	}
	return c, nil
}

// probeStore times the durable store on node A's populated directory
// while the nodes are down, and Put on a scratch store.
func probeStore(tr *tracer, parent int, rep *report, p *servePlan, dirA, scratch string) error {
	var opens []float64
	for i := 0; i < serveRestarts; i++ {
		span := tr.begin(parent, "store", "Open")
		st, err := store.Open(dirA, store.Options{})
		opens = append(opens, tr.end(span).Seconds())
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	rep.layer["store.open_s"] = median(opens)

	st, err := store.Open(dirA, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	stats := st.Stats()
	rep.layer["store.entries"] = float64(stats.Entries)
	rep.layer["store.bytes_per_entry"] = ratio(float64(stats.Bytes), float64(stats.Entries))
	var gets []float64
	var results []sim.Result
	var keys []string
	for _, k := range p.keys {
		if !k.ownerA {
			continue
		}
		span := tr.begin(parent, "store", "Get")
		res, ok := st.Get(k.key)
		gets = append(gets, ms(tr.end(span)))
		if !ok {
			return fmt.Errorf("store probe: key of %s missing from node A's store", k.req.Bench)
		}
		results = append(results, res)
		keys = append(keys, k.key)
	}
	rep.layer["store.get_p50_ms"] = quantile(gets, 0.50)
	rep.layer["store.get_p99_ms"] = quantile(gets, 0.99)

	sc, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	defer sc.Close()
	var puts []float64
	for i, res := range results {
		span := tr.begin(parent, "store", "Put")
		err := sc.Put(keys[i], res)
		puts = append(puts, ms(tr.end(span)))
		if err != nil {
			return err
		}
	}
	rep.layer["store.put_p50_ms"] = quantile(puts, 0.50)
	return nil
}

// probeServeTelemetry reads what the running phase-b fleet exposes:
// per-stage latency from /v1/load, routing ratios, hit traces and the
// size of one hit response. loadA is node A's report from phase a, the
// only phase that simulates; probe_disk is taken from phase b, where it
// times disk hits.
func probeServeTelemetry(ctx context.Context, tr *tracer, parent int, rep *report, c *api.Client, hc *http.Client, p *servePlan, outB []served, loadA *api.LoadReport) error {
	loadB, err := c.Load(ctx)
	if err != nil {
		return err
	}
	for _, st := range serveStages {
		src := loadA
		if st == "probe_disk" {
			src = loadB
		}
		l := src.Stages[st]
		rep.layer["serve."+st+".p50_ms"] = l.P50 * 1000
		rep.layer["serve."+st+".p99_ms"] = l.P99 * 1000
	}
	rep.layer["serve.mem_hit_ratio"] = loadA.MemHitRatio
	rep.layer["serve.proxied_ratio"] = loadA.ProxiedRatio
	rep.layer["serve.disk_hit_ratio"] = loadB.DiskHitRatio

	var spans, sizes []float64
	var hitReq *api.RunRequest
	for _, s := range outB {
		if s.class != classHit || s.err != nil {
			continue
		}
		hitReq = &p.keys[s.key].req
		if len(spans) == traceSamples {
			continue
		}
		var buf bytes.Buffer
		span := tr.begin(parent, "telemetry", "GET /trace")
		err := c.JobTrace(ctx, s.job.ID, "jsonl", &buf)
		tr.end(span)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(buf.Len()))
		spans = append(spans, float64(bytes.Count(buf.Bytes(), []byte("\n"))))
	}
	rep.layer["telemetry.spans_per_trace"] = median(spans)
	rep.layer["telemetry.trace_bytes"] = median(sizes)
	if hitReq == nil {
		return errors.New("phase b answered no hits")
	}
	n, err := responseSize(ctx, hc, *hitReq)
	if err != nil {
		return err
	}
	rep.layer["serve.hit_resp_bytes"] = float64(n)
	return nil
}

// responseSize posts one run request to node A and returns the size of
// the response body.
func responseSize(ctx context.Context, hc *http.Client, r api.RunRequest) (int64, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nodeA+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST /v1/run: %s", resp.Status)
	}
	return n, err
}

// fleet is the two tkserve processes.
type fleet struct {
	bin   string
	nodes []*node
}

// node is one tkserve process and its durable store.
type node struct {
	url, storeDir, logPath string
	cmd                    *exec.Cmd
	logf                   *os.File
	exited                 chan struct{} // closed once cmd.Wait returns
	waitErr                error
	peakKB                 int64 // largest peak RSS of any instance
}

func newFleet(bin, dir string) (*fleet, error) {
	f := &fleet{bin: bin}
	for i, u := range nodeURLs {
		name := string(rune('a' + i))
		n := &node{url: u, storeDir: filepath.Join(dir, "store-"+name), logPath: filepath.Join(dir, "node-"+name+".log")}
		if err := os.MkdirAll(n.storeDir, 0o755); err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// start execs every node and returns the time from the first exec until
// every node answers /healthz.
func (f *fleet) start() (time.Duration, error) {
	for _, n := range f.nodes {
		if healthy(n.url) {
			return 0, fmt.Errorf("%s already answers: another tkserve holds the benchmark's port", n.url)
		}
	}
	t0 := time.Now()
	for _, n := range f.nodes {
		if err := n.start(f.bin); err != nil {
			return 0, err
		}
	}
	deadline := t0.Add(60 * time.Second)
	for _, n := range f.nodes {
		for !healthy(n.url) {
			select {
			case <-n.exited:
				return 0, fmt.Errorf("%s exited during start-up: %v (log: %s)", n.url, n.waitErr, n.logPath)
			default:
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("%s not healthy after 60s (log: %s)", n.url, n.logPath)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return time.Since(t0), nil
}

// stop sends every running node SIGTERM and waits for it to exit.
func (f *fleet) stop() error {
	var errs []error
	for _, n := range f.nodes {
		if n.cmd != nil {
			_ = n.cmd.Process.Signal(syscall.SIGTERM) // an already-exited node is reaped below
		}
	}
	for _, n := range f.nodes {
		if err := n.wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (f *fleet) peakRSSMB() float64 {
	var kb int64
	for _, n := range f.nodes {
		kb = max(kb, n.peakKB)
	}
	return float64(kb) / 1024
}

var healthClient = &http.Client{Timeout: 500 * time.Millisecond}

func healthy(url string) bool {
	resp, err := healthClient.Get(url + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (n *node) start(bin string) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin,
		"-addr", strings.TrimPrefix(n.url, "http://"),
		"-workers", "1",
		"-store-dir", n.storeDir,
		"-peers", strings.Join(nodeURLs, ","),
		"-node-id", n.url,
		"-warmup", strconv.Itoa(serveWarmup),
		"-refs", strconv.Itoa(serveRefs),
		"-log-level", "warn",
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The node dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting tkserve: %w", err)
	}
	n.cmd, n.logf, n.exited = cmd, logf, make(chan struct{})
	go func() {
		n.waitErr = cmd.Wait()
		close(n.exited)
	}()
	return nil
}

// wait reaps the node after stop's SIGTERM, killing it if it does not
// drain in time, and records its peak RSS.
func (n *node) wait() error {
	if n.cmd == nil {
		return nil
	}
	defer func() { n.cmd, n.logf = nil, nil }()
	defer n.logf.Close()
	select {
	case <-n.exited:
	case <-time.After(30 * time.Second):
		_ = n.cmd.Process.Kill() // the wait below reports the outcome
		<-n.exited
		return fmt.Errorf("%s did not stop within 30s of SIGTERM", n.url)
	}
	if ru, ok := n.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		n.peakKB = max(n.peakKB, ru.Maxrss)
	}
	if n.waitErr != nil {
		return fmt.Errorf("%s: %w (log: %s)", n.url, n.waitErr, n.logPath)
	}
	return nil
}
