// Command sladeperf is the repository's benchmark of sladed: four seeded
// closed-loop workloads driven through the daemon's real HTTP path, a
// fixed set of end-to-end metrics, and a separate traced run that splits
// the time into per-layer metrics.
//
// It is a module of its own that imports the repository through a
// replace directive, so it builds from the source tree it sits in and
// changes nothing under internal/ or cmd/. Run it from the repository
// root:
//
//	bash sladeperf/run.sh --workload decompose-hot --seed 1 --seconds 28 --trace 0
//	bash sladeperf/run.sh --workload all --seed 1 --seconds 28 --trace 1 --profile .bench_build/prof
//
// run.sh builds into .bench_build/ (Go build cache included) and execs
// the binary. Flags:
//
//	--workload  decompose-hot | menu-churn | run-jobs | cluster-fanout | all
//	--seed      seed of the request sequence (same seed, same requests)
//	--seconds   length of the measured phase (at least 4)
//	--trace     0: end-to-end metrics; 1: per-layer metrics
//	--profile   with --trace 1, a directory for <workload>-cpu.pprof and
//	            <workload>-allocs.pprof of the traced phase (runtime/pprof)
//
// Stdout ends with one JSON line {"correct","attempted","failed",
// "metrics"} whose metrics carry value and unit. A readable table with
// sample counts precedes it, and .bench_build/results/
// <workload>-seed<n>-trace<t>.json holds the full result: provenance
// (GOMAXPROCS, nproc, CPU model, Go version, git commit, seed, run
// length), the resolved service configuration, every metric with its
// sample count, the one-second windows, and for a traced run the
// untraced baseline and the path of the span file. The command exits 1
// when any reply was wrong or any request failed, 2 on bad flags.
//
// # How every workload runs
//
// One process holds the services and the load generator. Two
// closed-loop clients (one per core of the 2-core machines this is
// sized for) each keep one keep-alive connection and walk a fixed,
// seeded request list; a client sends its next request only after the
// previous reply (a plan, or a run's terminal report) arrived and was
// checked, as a requester acting on the answer would. The list is
// generated from --seed with exact mix proportions and stratified sizes,
// so seeds differ in their requests but not in their composition.
//
// Services are built with cmd/sladed's flag defaults, not the library's
// zero values: 2 ms batch window, 128-entry cache, NumCPU workers, peer
// retries 1, 10 s cluster and platform timeouts, cluster.DefaultMinSpanBlocks.
// Request logs go through a slog text handler into io.Discard, so their
// formatting cost stays in the measurement. Menus are Jelly and SMIC at
// |B| ∈ {8, 12, 20}.
//
// Before any clock starts the command computes every expected answer
// without the service's code: homogeneous instances by an unsharded
// single-node solve (opq.SolveRunsRange over the whole range),
// heterogeneous ones by unsharded OPQ-Extended (hetero.Solve). Replies
// are compared exactly:
// decompose cost bit for bit (and solver "cluster" on the cluster),
// each batch member's cost, the NDJSON plan's use and assignment counts,
// and for run jobs a report that is done, not degraded, covers every task
// and spent exactly what the marketplace charged that run (a ledger in
// the platform transport, tied to the marketplace's own commit count).
//
// Set-up (boot of services, listeners, store, marketplace and cluster,
// then warm-up: one request per hot key and a short warm-up list drawn
// from a fixed seed, so every run's set-up does the same work) runs seven
// times; the last system is kept for the measured phase.
//
// # Workloads
//
// decompose-hot: POST /v1/decompose and /v1/decompose/batch over 18
// always-cached keys (6 menus × t ∈ {0.8, 0.9, 0.95}). 3 in 4 requests
// are single decomposes with n log-uniform in [1e3, 1e6], 1 in 10 of them
// asking for the plan as NDJSON; 1 in 4 is a batch of 32 same-key members
// with n in [1e3, 1e4]. The read path with no builds: HTTP codec, batcher,
// solve and plan encoding. The batch endpoint is the only way two
// connections make the batcher coalesce.
//
// menu-churn: small POST /v1/decompose requests, n = 2000, keys drawn
// with popularity ∝ 1/rank^0.8 over ~1000 (menu, threshold) pairs, 8×
// the cache; 1 in 4 is heterogeneous with 200 thresholds drawn from a
// continuous range, so its strictest class is a fresh key. Misses,
// opq.Build and evictions dominate; each request is solo, so the batch
// window is pure wait.
//
// run-jobs: POST /v1/jobs kind "run", n in [500, 2000], platform_kind
// "remote" against an in-process fault-free platform/testplatform behind
// PlatformURL, with store.FS in a temporary data dir. Each client follows
// GET /v1/jobs/{id}/events to the terminal frame, then GETs the status
// and checks the report. The write path: jobs, executor, platform RPC,
// durable store and the SSE hub.
//
// cluster-fanout: a 3-node in-process cluster (testcluster, with the
// daemon's span, timeout, cooldown and transport defaults in place of the
// harness's test tuning) with real HTTP between nodes; summary-only
// POST /v1/decompose to node 0 with n log-uniform in [2e4, 2e5]. The only
// workload through internal/cluster: span fan-out, peer RPC and merge.
//
// # End-to-end metrics (--trace 0)
//
// The measured phase is cut into one-second windows, each tagged with
// the machine's CPU steal from /proc/stat. On shared virtual machines the
// hypervisor takes the CPU in bursts, and a stolen millisecond lands on
// the latency tail, so the timing metrics are read from the quiet
// windows: every window with at most 2% stolen, then more in order of
// increasing steal until they hold 2500 verified requests (or half the
// run's, on the low-rate run-jobs and cluster-fanout) and at least three
// windows. On a calm host that is every window.
//
//	setup_s           s     median of the seven set-up rounds
//	req_p50_ms        ms    client latency of verified requests, median
//	                        (run jobs: submit to terminal SSE frame)
//	throughput_rps    1/s   verified requests per second
//	cpu_ms_per_req    ms    process user+sys CPU per verified request
//	alloc_kb_per_req  KiB   runtime TotalAlloc growth per verified request
//	                        (all windows)
//	heap_live_mb      MiB   live Go heap after collection, sampled ten
//	                        times a second, fitted by a line against the
//	                        verified requests served so far and read at
//	                        the sequence's length (one pass): run-jobs
//	                        grows with the jobs a daemon keeps by default,
//	                        so a mean over time would follow throughput
//
// The table and the result file add req_p99_ms (the 99th percentile of
// the same latencies), fail_ratio ((failed + refused + wrong) /
// attempted; 0 on every passing run, and the result line carries it as
// attempted and failed), mem_peak_mb (peak RSS, VmHWM reset each window,
// median over windows), mem_peak_max_mb (the highest peak, set-up
// included) and windows_used. These are not on the result line. When the
// host's steal is sustained no window is quiet, and p99 follows the
// hypervisor: ten runs of the same code on a host stolen at 20-30% gave a
// menu-churn p99 from 3.6 to 14 ms, whose quartiles lay further apart
// than the median, while req_p50_ms moved by about 15%. Peak RSS follows
// when the collector happens to run more than the program's memory use.
// Sample counts sit beside every metric in the table and the result file.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures --seconds/2 untraced, then boots a second system
// with recording wrappers and measures --seconds/2 traced. Spans are kept
// in memory and written to <result>.spans.jsonl at the end:
//
//	client root   load generator       its id, sent as X-Request-ID
//	server        handler wrapper      X-Request-ID
//	store op      Config.Store wrapper job id → submitting request
//	platform RPC  PlatformTransport    run id of Idempotency-Key (= job id)
//	peer RPC      ClusterTransport     the entry request whose server span
//	                                   contains it, when exactly one is in
//	                                   flight; otherwise unattributed
//
// Self times are a span minus the union of its children. Counters come
// from Stats() and /metrics, diffed across the traced phase and summed
// over every service of the run. A layer that does no work on a workload
// reports 0 with 0 samples. Units: ms, us, KiB, count (per job or per
// batch), 1/req (per client request), ratio.
//
//	http.server_ms            handler span per request (all its server spans)
//	http.transport_ms         client root minus its server spans (self time)
//	http.resp_kb              response bytes per request
//	http.codec_ms             server span minus solve.path_ms; run jobs: the
//	                          submit handler
//	solve.path_ms             the reply's elapsed_ms (the server's solve
//	                          call); run jobs: slade_solve_duration_seconds
//	batch.flushes             Stats().Batch.Batches per request
//	batch.mean_size           members per flush
//	batch.wait_ms             per batched solve call: solve path minus shard
//	                          queue wait, shard solve / workers and queue
//	                          builds (services whose path is the batcher)
//	cache.hit_ratio           hits / (hits + misses)
//	cache.builds, .evictions, .coalesced   per request
//	cache.build_ms            slade_cache_build_duration_seconds mean
//	shard.jobs_per_req        slade_shard_jobs_total per request
//	shard.queue_wait_ms       slade_shard_queue_wait_seconds mean
//	shard.solve_ms            slade_shard_solve_duration_seconds mean
//	opq.build_us              opq.Build on the workload's keys (direct call)
//	opq.solve_us_per_ktask    opq.SolveRunsRange on its sizes, per 1000 tasks
//	opq.solve_allocs          heap allocations per SolveRunsRange call
//	encode.ms_per_mtask       Plan.EncodeUsesNDJSON on its NDJSON instances,
//	                          per million tasks
//	encode.alloc_kb           bytes allocated per encode call
//	jobs.submit_ms            client span of POST /v1/jobs
//	jobs.first_frame_ms       events request to its first SSE frame
//	jobs.sse_frames_per_job   frames until the terminal one
//	jobs.self_ms              root minus submit, platform and store spans
//	executor.bins_per_job, .retries_per_job, .topups_per_job  slade_executor_*
//	executor.bin_ms           submit-to-terminal time per issued bin
//	platform.rpc_ms           transport span per marketplace call
//	platform.rpcs_per_job     calls per job
//	platform.useful_ratio     marketplace commits / slade_platform_attempts_total
//	platform.throttle_wait_ms slade_platform_throttle_wait_seconds per job
//	store.put_ms              PutJob span
//	store.ops_per_job         store operations per job
//	cluster.peer_rpc_ms       peer RPC span, to the end of its reply body
//	cluster.peer_resp_kb      peer reply bytes
//	cluster.spans_remote_per_req, .spans_local_per_req  Stats().Cluster per request
//	cluster.fallbacks         Stats().Cluster.Fallbacks over the phase
//	obs.scrape_ms             one GET /metrics after the phase
//	obs.series                samples in that exposition
//	trace.overhead_ms         traced minus untraced req_p50_ms
//	trace.spans               spans recorded
//	trace.unattributed        spans that joined no request
//
// A derived metric (http.codec_ms, batch.wait_ms) that comes out negative
// fails the run: the spans and counters it is built from disagree.
//
// # Comparing two result sets
//
// Build each commit, run every workload on the same seeds (ten or more)
// with the same --seconds, alternating which commit runs first, and
// collect the result lines. Report one row per workload and metric: each
// side's median and first and third quartiles (Python's
// statistics.quantiles(values, n=4)). A metric regresses when the
// change's median is worse than the parent's by more than the bound in
// BENCHMARK.json, a share of the parent's median. Where the parent's
// own spread, (Q3 - Q1) / median, is wider than the bound, call the
// metric unresolved rather than unchanged. Claim a gain only on the
// metric and workload named beforehand, when the change wins at least
// nine in ten pairs and the medians differ by more than the parent's
// spread, and show in the traced run which layer's metrics moved.
package main
