// Command kvbench is the repository's benchmark of the MxTask key-value
// server end to end. One process starts the real kvstore.Server on
// loopback, over a kvstore.Store on an mxtask runtime with one worker per
// CPU and prefetch distance 2 (mxkv's defaults), and drives it over 2 TCP
// connections with its own allocation-free line-protocol codec. Every
// reply is checked. It touches only kvstore.New/Open/NewServer, the
// Backend interface, Store.WALMetrics, Store.Runtime().Stats() and
// AllocStats(), and Server.Metrics().
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash kvbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report. --trace 0 reports the end-to-end metrics and
// --trace 1 the per-layer ones. BENCHMARK.json at the repository root
// names the workloads, the metrics and their regression bounds.
//
// # Workloads
//
// Every value is a fixed function of its key (a 40-bit tag of the key and
// a 23-bit version), so every read can be checked. Request streams come
// from --seed. Sizes were measured on 2 CPUs (L2 2 MiB per core, shared
// L3 105 MiB) with go1.24.0.
//
//   - read-hot: closed loop, 2 connections × 16 in flight; YCSB-C GETs,
//     Zipf θ=0.99, over 200k in-memory records (an ~8 MB tree that fits
//     L3). Each descent is short and hits cache, so the wire layer
//     dominates: parsing, per-request reply channels, reply formatting and
//     writer flushes. Allocation work on the request path must show here.
//     It never touches the WAL.
//   - update-durable: closed loop, 2 × 16; YCSB-A (50% GET, 50% SET), Zipf
//     θ=0.99, over 200k records in a store opened with kvstore.Open and the
//     zero-value sync policy (one fsync per group-commit batch), its WAL in
//     a fresh directory under .bench_build. The timed phase is a fixed
//     90,000 × seconds requests (about 1.4 × seconds long here), so every
//     commit replays the same log. At the end the store is closed,
//     reopened and every record checked. Writes run beside reads on the
//     same hot leaves: WAL group commit, exclusive leaf writes racing
//     optimistic reads, and recovery.
//   - mget-large: closed loop, 2 × 4; MGETs of 64 uniform-random keys over
//     4M in-memory records (~160 MB of heap, more than L3; loading takes
//     ~10 s of set-up). Wire cost is spread over 64 keys and each key's
//     descent misses cache, so Blink-tree descent, interleaved group
//     descents and mxtask prefetching dominate. It is the only workload
//     whose tree is bigger than the cache.
//   - read-paced: open loop at 40k requests/s in total, a fifth of
//     read-hot's ~190k; YCSB-B (95% GET, 5% SET), Zipf θ=0.99, over 200k
//     in-memory records. Each connection sends on a fixed schedule whatever
//     is outstanding, a separate reader takes the replies, and latency is
//     timed from each request's due time. Workers run out of tasks and back
//     off, and the writer flushes reply by reply — paths the saturated
//     closed loops never take. A change that gains throughput by delaying
//     replies shows here.
//
// A connection writes only records whose index is its own modulo 2, and
// never has two SETs of one record outstanding, so the last acknowledged
// value of every record is known: a read must return a version between the
// one acknowledged before it was sent and the newest one sent, and after
// update-durable reopens, every record must hold its last acknowledged
// version. A wrong, missing or ERR reply, or a lost acknowledged write,
// counts as failed and makes the run incorrect.
//
// # End-to-end metrics (tracing off)
//
// A run sets the system up three times and measures each set-up for a
// third of --seconds (update-durable: a third of its requests), so one
// set-up's luck — how its goroutines and memory landed — weighs a third.
// Each timed phase is cut into one-second windows, pooled over the three.
// Throughput, latency percentiles and CPU per operation are computed per
// window, and the figure reported is the median over the quiet windows:
// those in which the machine lost no more CPU time to steal (the
// hypervisor running other guests on its CPUs, /proc/stat) than the
// quietest window plus 1%, and at least half of all windows. On a shared
// host such bursts stretch every latency while they last; the quiet
// windows measure the program. The report lists each window's throughput
// and steal. Allocation figures are exact counts over the whole phase.
//
//   - setup_s: start until ready (runtime, store and server up, records
//     loaded, warm-up answered); the median of the run's 3 set-ups.
//   - throughput_ops_s: key operations per second (an MGET of 64 counts 64).
//   - read_p50_us, read_p99_us: exact percentiles of GET or MGET latency
//     from sorted raw samples of each window; the report prints the sample
//     count and the whole phase's percentile beside them.
//   - cpu_us_per_op: process user + sys CPU per key operation (the
//     in-process load generator included).
//   - allocs_per_op, alloc_bytes_per_op: process heap allocations per key
//     operation.
//   - heap_bytes_per_record: live heap the load added, after a GC, per
//     record; the median of the 3 set-ups.
//
// The report also prints write_p50_us and write_p99_us on the workloads
// that write, recovery_s on update-durable, and error_rate (failed over
// attempted, also carried by the JSON's failed and attempted) on all.
// BENCHMARK.json bounds only metrics every workload has and that are
// never 0, so these four are not among its end-to-end metrics: the write
// latencies and recovery time are reported in the traced run as
// loadgen.write_p50_us, loadgen.write_p99_us and store.recovery_s, and
// any error fails the run.
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures its three set-ups as above, then the last one
// for another phase of the same length with tracing on. The Backend the
// server drives is wrapped: each Get/Set/GetBatch/SetBatch call records a
// span to each key's callback and, for batches, to the last one. The generator records a
// span per request from send (or due time) to reply. Spans stay in memory
// (the first 512k of each kind) and are written to .bench_build/kvbench/
// spans-<workload>.bin at the end. Counters are deltas over the traced
// phase. Tracing overhead, the untraced minus the traced throughput, is
// printed and reported as trace.overhead_ratio. Which end-to-end metric
// each layer metric should move, and on which workload:
//
//	layer      metrics                                    moves                           on
//	loadgen    late_p99_us (how late sends left)          confirms read_p99_us            read-paced
//	           allocs_per_op (the generator's own, ~0)    confirms allocs_per_op          all
//	server     self_p50_us, self_p99_us                   read_p50_us, throughput_ops_s,  read-hot;
//	           (client span − backend span),              allocs_per_op; read_p99_us      read-paced
//	           keys_per_backend_call (neighbor batching),
//	           depth_mean (ServerMetrics.Depth),
//	           inflight_max
//	store      get_p50_us, get_p99_us, set_p50_us,        write_p99_us; read_p99_us,      update-durable;
//	           set_p99_us, batch_p50_us, batch_p99_us     throughput_ops_s                mget-large
//	blinktree  steps_per_cursor (nodes per descent),      throughput_ops_s, read_p99_us   mget-large
//	           fallback_ratio, retired_ratio
//	mxtask     tasks_per_op, spawned_per_op,              cpu_us_per_op, throughput_ops_s; all;
//	           prefetches_per_op, read_retries_per_op,    retries move write_p99_us       update-durable
//	           fastpath_ratio (fast-path reads / tasks)
//	alloc      core_hit_ratio, global_refs_per_mop        allocs_per_op                   read-hot
//	wal        records_per_batch, syncs_per_write,        write_p50_us, throughput_ops_s, update-durable
//	           fsync_mean_us, ack_mean_us,                recovery_s                      only; 0 elsewhere
//	           bytes_per_user_byte, replay_records_per_s
//	goruntime  gc_cpu_fraction, sched_latency_p99_us,     cpu_us_per_op, read_p99_us      read-hot,
//	           cpu_sys_fraction                                                           read-paced
//
// Server self time pairs each request with its backend span by key and
// issue order; a key whose pairing is ambiguous (concurrent requests for
// it, or a span past the buffer) is left out, and when fewer than half
// pair, the layer means are reported instead. The report says which, and
// names every metric that is 0 by construction on a workload and why.
// goruntime.sched_latency_p99_us is the upper bound of the runtime
// histogram bucket holding the 99th percentile.
//
// How the metrics interact: on read-hot the store span is a small share
// of each request, so a faster tree moves throughput by at most that
// share. Allocation savings show first in allocs_per_op, gc_cpu_fraction
// and cpu_us_per_op, and in throughput_ops_s only as far as both CPUs are
// busy. On update-durable fsync time sets write_p50_us while batch size
// sets throughput; raising records_per_batch can raise both. On read-paced
// a wake-up change trades CPU for latency, so cpu_us_per_op and
// read_p99_us must be read together.
package main
