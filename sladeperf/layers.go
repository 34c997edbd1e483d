package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/opq"
	"repro/internal/service"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; a layer that does no work on
// a workload reports 0 with 0 samples.
var layerMetrics = []struct{ name, unit string }{
	{"http.server_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"http.resp_kb", "KiB"},
	{"http.codec_ms", "ms"},
	{"solve.path_ms", "ms"},
	{"batch.flushes", "1/req"},
	{"batch.mean_size", "count"},
	{"batch.wait_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.builds", "1/req"},
	{"cache.evictions", "1/req"},
	{"cache.coalesced", "1/req"},
	{"cache.build_ms", "ms"},
	{"shard.jobs_per_req", "1/req"},
	{"shard.queue_wait_ms", "ms"},
	{"shard.solve_ms", "ms"},
	{"opq.build_us", "us"},
	{"opq.solve_us_per_ktask", "us"},
	{"opq.solve_allocs", "count"},
	{"encode.ms_per_mtask", "ms"},
	{"encode.alloc_kb", "KiB"},
	{"jobs.submit_ms", "ms"},
	{"jobs.first_frame_ms", "ms"},
	{"jobs.sse_frames_per_job", "count"},
	{"jobs.self_ms", "ms"},
	{"executor.bins_per_job", "count"},
	{"executor.retries_per_job", "count"},
	{"executor.topups_per_job", "count"},
	{"executor.bin_ms", "ms"},
	{"platform.rpc_ms", "ms"},
	{"platform.rpcs_per_job", "count"},
	{"platform.useful_ratio", "ratio"},
	{"platform.throttle_wait_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.ops_per_job", "count"},
	{"cluster.peer_rpc_ms", "ms"},
	{"cluster.peer_resp_kb", "KiB"},
	{"cluster.spans_remote_per_req", "1/req"},
	{"cluster.spans_local_per_req", "1/req"},
	{"cluster.fallbacks", "count"},
	{"obs.scrape_ms", "ms"},
	{"obs.series", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.unattributed", "count"},
}

// counters is a snapshot of every service's Stats and /metrics taken
// just before and just after the traced phase.
type counters struct {
	stats   []service.Stats
	prom    []map[string]float64
	commits uint64
}

func snapshotCounters(s *system) counters {
	var c counters
	for _, svc := range s.svcs {
		c.stats = append(c.stats, svc.Stats())
		c.prom = append(c.prom, parseExposition(svc.Metrics()))
	}
	if s.market != nil {
		c.commits = s.market.Commits()
	}
	return c
}

// parseExposition sums a Prometheus text exposition's samples per
// series name across label sets.
func parseExposition(b []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// delta is a counter's growth over the traced phase, summed over the
// services at the given indexes.
func delta(before, after counters, name string, idx []int) float64 {
	d := 0.0
	for _, i := range idx {
		d += after.prom[i][name] - before.prom[i][name]
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns the traced phase's spans and counter deltas into the
// per-layer metrics. A remainder that comes out negative is an error:
// it means the spans and counters it is derived from disagree.
func perLayer(ctx context.Context, w workload, s *system, spans []span, before, after counters,
	ms []loadedMenu, reqs []request) (metrics, error) {
	m := metrics{}
	for _, lm := range layerMetrics {
		m.set(lm.name, 0, lm.unit, 0)
	}
	set := func(name string, v float64, samples int) {
		cur := m[name]
		m.set(name, v, cur.Unit, samples)
	}
	all := make([]int, len(s.svcs))
	for i := range all {
		all[i] = i
	}
	batched := s.batched

	// Join spans to their roots.
	type rootInfo struct {
		root     span
		servers  []span
		children []span // store, platform and submit spans of a run job
	}
	roots := make(map[string]*rootInfo)
	var ordered []*rootInfo
	jobRoot := make(map[string]*rootInfo)
	for _, sp := range spans {
		if sp.Kind == "client" {
			ri := &rootInfo{root: sp}
			roots[sp.Key] = ri
			ordered = append(ordered, ri)
			if sp.Job != "" {
				jobRoot[sp.Job] = ri
			}
		}
	}
	var submits, events, platformSpans, storeSpans, peers, servers []span
	unattributed := 0
	for _, sp := range spans {
		switch sp.Kind {
		case "server":
			servers = append(servers, sp)
			if ri := roots[sp.Key]; ri != nil {
				ri.servers = append(ri.servers, sp)
			} else {
				unattributed++
			}
		case "submit":
			submits = append(submits, sp)
			if ri := roots[sp.Key]; ri != nil {
				ri.children = append(ri.children, sp)
			}
		case "events":
			events = append(events, sp)
		case "platform", "store":
			if sp.Kind == "platform" {
				platformSpans = append(platformSpans, sp)
			} else {
				storeSpans = append(storeSpans, sp)
			}
			if ri := jobRoot[sp.Key]; ri != nil {
				ri.children = append(ri.children, sp)
			} else {
				unattributed++
			}
		case "peer":
			peers = append(peers, sp)
		}
	}
	unattributed += unattributedPeers(peers, servers)
	nReq := len(ordered)
	if nReq == 0 {
		return nil, fmt.Errorf("traced phase completed no requests")
	}
	reqF := float64(nReq)

	// http: server spans, root self time, bytes.
	var serverNS, transportNS, bytesOut, solveMS float64
	for _, ri := range ordered {
		var iv [][2]int64
		for _, sv := range ri.servers {
			serverNS += float64(sv.dur())
			bytesOut += float64(sv.Bytes)
			iv = append(iv, [2]int64{sv.Start, sv.End})
		}
		transportNS += float64(selfTime(ri.root, iv))
		solveMS += ri.root.SolveMS
	}
	set("http.server_ms", serverNS/reqF/1e6, nReq)
	set("http.transport_ms", transportNS/reqF/1e6, nReq)
	set("http.resp_kb", bytesOut/reqF/1024, nReq)

	// solve: the server's own solve time per request (elapsed_ms of the
	// reply); run jobs plan off the request path, so theirs comes from
	// the solve histogram.
	isRun := w.name == "run-jobs"
	solvePath := solveMS / reqF
	if isRun {
		solvePath = delta(before, after, "slade_solve_duration_seconds_sum", all) * 1e3 / reqF
	}
	set("solve.path_ms", solvePath, nReq)
	if isRun {
		var sub float64
		for _, sp := range servers {
			if sp.Op == "/v1/jobs" {
				sub += float64(sp.dur())
			}
		}
		set("http.codec_ms", sub/reqF/1e6, nReq)
	} else {
		codec := serverNS/reqF/1e6 - solvePath
		if codec < 0 {
			return nil, fmt.Errorf("negative remainder http.codec_ms = %g", codec)
		}
		set("http.codec_ms", codec, nReq)
	}

	// batch: flushes and sizes from Stats, the wait as the remainder of
	// the batched solve path once shard queueing, shard solving (at most
	// Workers shards of one call run at once) and queue builds are taken
	// out.
	var flushes, joined float64
	for _, i := range batched {
		flushes += float64(after.stats[i].Batch.Batches - before.stats[i].Batch.Batches)
		joined += float64(after.stats[i].Batch.BatchedRequests - before.stats[i].Batch.BatchedRequests)
	}
	set("batch.flushes", flushes/reqF, nReq)
	set("batch.mean_size", ratio(joined, flushes), int(flushes))
	solveCalls := delta(before, after, "slade_solve_duration_seconds_count", batched)
	if solveCalls > 0 {
		workers := float64(after.stats[batched[0]].Workers)
		wait := (delta(before, after, "slade_solve_duration_seconds_sum", batched) -
			delta(before, after, "slade_shard_queue_wait_seconds_sum", batched) -
			delta(before, after, "slade_shard_solve_duration_seconds_sum", batched)/workers -
			delta(before, after, "slade_cache_build_duration_seconds_sum", batched)) / solveCalls * 1e3
		if wait < 0 {
			return nil, fmt.Errorf("negative remainder batch.wait_ms = %g", wait)
		}
		set("batch.wait_ms", wait, int(solveCalls))
	}

	// cache, over every service.
	var hits, misses, builds, evictions, coalesced float64
	for _, i := range all {
		a, b := after.stats[i].Cache, before.stats[i].Cache
		hits += float64(a.Hits - b.Hits)
		misses += float64(a.Misses - b.Misses)
		builds += float64(a.Builds - b.Builds)
		evictions += float64(a.Evictions - b.Evictions)
		coalesced += float64(a.Coalesced - b.Coalesced)
	}
	set("cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	set("cache.builds", builds/reqF, nReq)
	set("cache.evictions", evictions/reqF, nReq)
	set("cache.coalesced", coalesced/reqF, nReq)
	nb := delta(before, after, "slade_cache_build_duration_seconds_count", all)
	set("cache.build_ms", ratio(delta(before, after, "slade_cache_build_duration_seconds_sum", all), nb)*1e3, int(nb))

	// shard, over every service.
	shardJobs := delta(before, after, "slade_shard_jobs_total", all)
	set("shard.jobs_per_req", shardJobs/reqF, nReq)
	nq := delta(before, after, "slade_shard_queue_wait_seconds_count", all)
	set("shard.queue_wait_ms", ratio(delta(before, after, "slade_shard_queue_wait_seconds_sum", all), nq)*1e3, int(nq))
	ns := delta(before, after, "slade_shard_solve_duration_seconds_count", all)
	set("shard.solve_ms", ratio(delta(before, after, "slade_shard_solve_duration_seconds_sum", all), ns)*1e3, int(ns))

	// opq and encode: direct calls on the workload's own instances.
	if err := probeOPQ(m, ms, reqs); err != nil {
		return nil, err
	}
	if err := probeEncode(m, ms, reqs); err != nil {
		return nil, err
	}

	if isRun {
		jobs := reqF
		set("jobs.submit_ms", meanDur(submits), len(submits))
		var first, frames float64
		for _, ev := range events {
			first += float64(ev.dur())
			frames += float64(ev.Bytes)
		}
		set("jobs.first_frame_ms", first/float64(max(len(events), 1))/1e6, len(events))
		set("jobs.sse_frames_per_job", frames/float64(max(len(events), 1)), len(events))
		var self, execNS float64
		for _, ri := range ordered {
			var iv [][2]int64
			for _, c := range ri.children {
				iv = append(iv, [2]int64{c.Start, c.End})
			}
			self += float64(selfTime(ri.root, iv))
			for _, c := range ri.children {
				if c.Kind == "submit" {
					execNS += float64(ri.root.End - c.End)
				}
			}
		}
		set("jobs.self_ms", self/jobs/1e6, nReq)
		bins := delta(before, after, "slade_executor_bins_issued_total", all)
		set("executor.bins_per_job", bins/jobs, nReq)
		set("executor.retries_per_job", delta(before, after, "slade_executor_retries_total", all)/jobs, nReq)
		set("executor.topups_per_job", delta(before, after, "slade_executor_topup_rounds_total", all)/jobs, nReq)
		set("executor.bin_ms", ratio(execNS, bins)/1e6, int(bins))

		set("platform.rpc_ms", meanDur(platformSpans), len(platformSpans))
		set("platform.rpcs_per_job", float64(len(platformSpans))/jobs, nReq)
		attempts := delta(before, after, "slade_platform_attempts_total", all)
		set("platform.useful_ratio", ratio(float64(after.commits-before.commits), attempts), int(attempts))
		set("platform.throttle_wait_ms", delta(before, after, "slade_platform_throttle_wait_seconds_sum", all)*1e3/jobs, nReq)

		var puts []span
		for _, sp := range storeSpans {
			if sp.Op == "put" {
				puts = append(puts, sp)
			}
		}
		set("store.put_ms", meanDur(puts), len(puts))
		set("store.ops_per_job", float64(len(storeSpans))/jobs, nReq)
	}

	if st0, st1 := before.stats[0].Cluster, after.stats[0].Cluster; st0 != nil && st1 != nil {
		var respBytes float64
		for _, p := range peers {
			respBytes += float64(p.Bytes)
		}
		set("cluster.peer_rpc_ms", meanDur(peers), len(peers))
		set("cluster.peer_resp_kb", respBytes/float64(max(len(peers), 1))/1024, len(peers))
		set("cluster.spans_remote_per_req", float64(st1.SpansRemote-st0.SpansRemote)/reqF, nReq)
		set("cluster.spans_local_per_req", float64(st1.SpansLocal-st0.SpansLocal)/reqF, nReq)
		set("cluster.fallbacks", float64(st1.Fallbacks-st0.Fallbacks), nReq)
	}

	scrapeMS, series, err := scrape(ctx, s)
	if err != nil {
		return nil, err
	}
	set("obs.scrape_ms", scrapeMS, 1)
	set("obs.series", float64(series), 1)
	set("trace.spans", float64(len(spans)), len(spans))
	set("trace.unattributed", float64(unattributed), len(spans))
	return m, nil
}

func meanDur(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var t float64
	for _, s := range spans {
		t += float64(s.dur())
	}
	return t / float64(len(spans)) / 1e6
}

// selfTime is the part of parent's interval that none of the child
// intervals covers.
func selfTime(parent span, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	covered := int64(0)
	cur := parent.Start
	for _, c := range children {
		lo, hi := max(c[0], cur), min(c[1], parent.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return parent.dur() - covered
}

// unattributedPeers counts the peer RPCs that cannot be joined to one
// entry request: a peer span belongs to the entry request whose server
// span contains it, when exactly one entry request was in flight as it
// started.
func unattributedPeers(peers, servers []span) int {
	n := 0
	for _, p := range peers {
		inflight, contains := 0, false
		for _, s := range servers {
			if s.Start <= p.Start && p.Start <= s.End {
				inflight++
				contains = p.End <= s.End
			}
		}
		if inflight != 1 || !contains {
			n++
		}
	}
	return n
}

// probeOPQ times opq.Build on the workload's homogeneous keys and
// opq.SolveRunsRange on its homogeneous sizes, outside the server.
func probeOPQ(m metrics, ms []loadedMenu, reqs []request) error {
	type key struct {
		menu int
		t    float64
	}
	type sized struct {
		k key
		n int
	}
	const maxKeys, maxSolves = 32, 512
	queues := make(map[key]*opq.Queue)
	var buildNS time.Duration
	var sizes []sized
	for _, r := range reqs {
		if r.threshold == 0 {
			continue
		}
		k := key{r.menu, r.threshold}
		if _, ok := queues[k]; !ok {
			if len(queues) == maxKeys {
				continue
			}
			start := time.Now()
			q, err := opq.Build(ms[r.menu].bins, r.threshold)
			buildNS += time.Since(start)
			if err != nil {
				return fmt.Errorf("opq probe: %w", err)
			}
			queues[k] = q
		}
		ns := r.sizes
		if ns == nil {
			ns = []int{r.n}
		}
		for _, n := range ns {
			if len(sizes) < maxSolves {
				sizes = append(sizes, sized{k, n})
			}
		}
	}
	if len(queues) == 0 {
		return nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	tasks := 0
	for _, s := range sizes {
		if _, err := opq.SolveRunsRange(queues[s.k], 0, s.n); err != nil {
			return fmt.Errorf("opq probe: %w", err)
		}
		tasks += s.n
	}
	solve := time.Since(start)
	runtime.ReadMemStats(&ms1)
	m.set("opq.build_us", float64(buildNS.Nanoseconds())/float64(len(queues))/1e3, "us", len(queues))
	m.set("opq.solve_us_per_ktask", float64(solve.Nanoseconds())/1e3/(float64(tasks)/1e3), "us", len(sizes))
	m.set("opq.solve_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(sizes)), "count", len(sizes))
	return nil
}

// probeEncode times Plan.EncodeUsesNDJSON on the workload's
// plan-bearing instances (the NDJSON requests), outside the server.
func probeEncode(m metrics, ms []loadedMenu, reqs []request) error {
	const maxPlans = 32
	var plans []*core.Plan
	tasks := 0
	for _, r := range reqs {
		if r.kind != kindNDJSON || len(plans) == maxPlans {
			continue
		}
		q, err := opq.Build(ms[r.menu].bins, r.threshold)
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		pr, err := opq.SolveRunsRange(q, 0, r.n)
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		plans = append(plans, core.NewRunPlan(pr))
		tasks += r.n
	}
	if len(plans) == 0 {
		return nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, p := range plans {
		if err := p.EncodeUsesNDJSON(io.Discard); err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
	}
	enc := time.Since(start)
	runtime.ReadMemStats(&ms1)
	m.set("encode.ms_per_mtask", float64(enc.Nanoseconds())/1e6/(float64(tasks)/1e6), "ms", len(plans))
	m.set("encode.alloc_kb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(plans))/1024, "KiB", len(plans))
	return nil
}

// scrape times one GET /metrics on the entry node and counts its series.
func scrape(ctx context.Context, s *system) (float64, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	c := s.clients[0]
	start := time.Now()
	code, err := c.exchange(req)
	elapsed := time.Since(start)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("scrape /metrics: %d %v", code, err)
	}
	series := 0
	for _, line := range bytes.Split(c.buf.Bytes(), []byte{'\n'}) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	return float64(elapsed.Nanoseconds()) / 1e6, series, nil
}
