// Command pardperf is the repository's end-to-end benchmark. It builds
// each workload through the public pard API, drives it as a closed loop
// of fixed simulated steps (what an interactive `run N` at the pardd
// console does), checks the run's invariants, and prints every metric
// as `name value unit` followed by one JSON line. BENCHMARK.json at the
// repository root names the command, the workloads, the metrics, their
// units, directions and bounds; the program refuses to report a metric
// set that differs from it.
//
// # Running
//
// From the repository root:
//
//	bash cmd/pardperf/run.sh --workload colocate --seed 42 --seconds 25 --trace 0
//	bash cmd/pardperf/run.sh --workload observe --trace 1 -spans /tmp/observe-spans.json
//
// run.sh builds this package (its own module, which uses the repository
// through a replace directive) into .bench_build/ and runs it. --seed
// reaches only generated inputs: memcached tenant i of a workload draws
// its arrivals and probes from seed + i. --seconds is the wall time of
// the timed phase; a run always makes at least 60 steps.
//
// # Run shape
//
// Each run sets the workload up (topology, LDoms, policies, tenants),
// warms it for a fixed simulated time so the modelled caches fill and
// memcached loads its dataset, runs runtime.GC, and then times steps.
// A step is one Run of the workload's step length, followed on observe
// by the operator block. Exact counts and an FNV-64 hash of
// pard.StateDigest (Cluster.Digest for clusters) are taken after step
// 60 and printed as `exact ...` and `digest ...` lines; they depend only
// on the seed, so two runs with the same seed must print identical
// ones.
//
// # Workloads
//
//   - colocate: one Table 2 server with a 50 us statistics window;
//     fig8's calibrated memcached (LDom0, memory priority 1, row buffer
//     1) at 17.5 KRPS, STREAM in LDoms 1-3 and
//     examples/policies/llc_guard.pard. Steps of 500 us after a 10 ms
//     warm-up. Why: the Figure 8 server, heavy in the engine, cache,
//     dram, core and cpu, and never touching the NIC, fabric or shard
//     runtime. The load is fig8's 17.5 KRPS point, not fig9's 20: at 20
//     the request queue is a near-critical random walk and the backlog
//     check fails on some seeds.
//   - observe: colocate's machine, tenants and seed plus TraceSample 1
//     and a 1 us telemetry interval, in 250 us steps. After each step an
//     operator block runs 8 `cat` reads (cpa0 miss_rate and cpa1
//     lat_p99_queue of every LDom) and one Prometheus render, and every
//     other step reloads llc_guard and toggles ldom1's way mask between
//     0x00f0 and 0x00ff. Why: the same data path as colocate, so a change
//     to the observation layers moves observe and leaves colocate flat.
//   - cluster_fabric: 4 racks of 2 two-core servers, 1 spine, 2 shards on
//     2 workers, switch egress serialised at 1.25e9 B/s so WFQ is live.
//     Each server runs memcached at 2 KRPS (256 KiB footprint, 80 probes
//     per request) in a vNIC LDom and sends a 1500 B frame every 3 us
//     plus a per-server skew to its peer in the next rack. Steps of 3 ms
//     after a 10 ms warm-up. Why: the only workload using the NIC, the
//     switches and the PDES barrier and mailboxes, with a light memory
//     hierarchy.
//   - rack8: 2 racks of 4 colocate servers on one engine behind
//     passthrough switches, with no frames. Steps of 50 us after a 5 ms
//     warm-up. Why: eight servers share one event queue, so it covers
//     the queue discipline at rack scale, bytes per server and the
//     set-up of 8 systems, 32 LDoms and 8 policy loads.
//
// # End-to-end metrics
//
// Host time in reference seconds (below), measured untraced. Bounds are
// the share of the parent's median by which a metric may worsen before
// a change is rejected.
//
//   - sim_us_per_s (higher, bound 0.2): simulated time advanced per
//     reference second over all timed steps.
//   - step_ms_p50 (lower, bound 0.2), step_ms_p90 (lower, bound 0.25):
//     median and 90th percentile of the time of one step, what an
//     interactive `run` costs; a run makes 250 to 520 steps, so at least
//     25 lie beyond the 90th percentile. The 90th catches GC pauses and
//     barrier stalls.
//   - setup_s (lower, bound 0.25): median time of one set-up, from 24
//     set-ups timed in three groups of 8 (before the warm-up, before the
//     timed phase and after it), each group after 2 untimed ones and
//     with the collector paused (see timeSetups).
//   - heap_mb_per_server (lower, bound 0.05): HeapAlloc after a GC at the
//     end of the run, in 1e6 bytes, divided by the server count.
//
// The JSON line's attempted is the memcached requests that arrived plus
// the frames sent in the timed phase; failed is the frames the switches
// dropped. Requests still queued at the end are bounded by the backlog
// check rather than counted as failed.
//
// # Reference seconds
//
// The shared hosts this was measured on run the same code up to 1.8x
// slower for tens of seconds at a time, in CPU time as in wall time, so
// wall-clock metrics spread by 10-30% between runs of the same code.
// The benchmark therefore runs a fixed probe (a binary heap and map
// increments, the shapes of the simulator's event queue and tables, in
// about 3 ms) after every timed step and before every group of
// set-ups. It scales each step's wall time by the nominal probe time
// over the median of the 11 probes around it, and each set-up by the
// same ratio from the 11 probes before its group (see hostClock). A change
// to the program does not touch the probe and moves the metrics in full;
// a slow period on the host moves both and cancels. On the reference
// host the interquartile range of sim_us_per_s over 10 runs fell from
// 6-23% of the median in wall seconds to 2-4.5% in reference seconds.
// The probe time is printed on the `host` line next to the unscaled
// wall-clock speed; BASELINE.json records both spreads.
//
// # Checks
//
// A run fails (correct false, exit status 1) when:
//
//   - a memcached tenant has completed no request by the end of the
//     warm-up, or none in the timed phase;
//   - llc_guard never fired on some server of colocate, observe or rack8;
//   - frames sent < frames received + frames dropped by switches;
//   - a memcached queue's mean depth over the second half of the timed
//     steps exceeds its mean over the first half by more than 8;
//   - with --trace 1, the traced run's digest or exact counts differ from
//     the untraced run's over the same steps.
//
// # Traced runs and per-layer metrics
//
// --trace 1 first runs the workload untraced, then sets it up again and
// runs it for the same number of steps with tracing from outside the
// program: spans around every call the benchmark makes into it
// (setup.build, setup.provision, warm, step, and inside a step run,
// op.sh, op.export, op.reload, op.write), the shard run/wait timers
// (ShardGroup.EnableProfileTimers), and a runtime/pprof CPU profile of
// the timed phase. It prints the per-layer metrics instead of the
// end-to-end ones; -spans writes the spans as Chrome trace-event JSON.
//
// Layers are the repository's modules: sim.engine and sim.shard (methods
// of Shard and ShardGroup) split internal/sim, then cpu, cache, dram,
// core, iodev, fabric, prm, policy, telemetry, metric, trace, workload,
// pard, plus bench (this package), runtime (samples with no repository
// frame) and other (repository packages not listed). Per layer:
//
//	layer       metrics                                            should move -> on (flat on)
//	sim.engine  sim.events, sim.events_per_sim_us, sim.pending_p50, sim_us_per_s on colocate and rack8
//	            sim.ns_per_event, sim.engine.cpu_share             (check both: 1 vs 8 servers per queue)
//	sim.shard   windows_per_sim_ms, idle_skip_ratio, cross_sends,  sim_us_per_s, step_ms_p90 on cluster_fabric
//	            mailbox_peak, horizon_utilization, run_share,      (flat on the other three)
//	            wait_share, cpu_share
//	cpu         cpu.ops, cpu.stall_frac, cpu.cpu_share             sim_us_per_s on colocate, rack8
//	cache       cache.llc_accesses, cache.llc_miss_ratio,          sim_us_per_s on colocate, rack8
//	            cache.ns_per_llc_access, cache.cpu_share           (light on cluster_fabric)
//	dram        dram.requests, dram.avg_qlat, dram.ns_per_request, sim_us_per_s on colocate, rack8
//	            dram.cpu_share                                     (light on cluster_fabric)
//	core        core.cpu_share (packets, PIFO, plane tables)       sim_us_per_s on all four
//	iodev       iodev.tx_frames, iodev.rx_frames,                  sim_us_per_s on cluster_fabric
//	            iodev.ns_per_frame, iodev.cpu_share                (zero on colocate)
//	fabric      fabric.forwarded, fabric.dropped,                  sim_us_per_s, failed on cluster_fabric
//	            fabric.q_depth_max, fabric.ns_per_forward,
//	            fabric.cpu_share
//	prm/policy  prm.triggers_handled, prm.triggers_suppressed,     step_ms_p90 on observe (flat on colocate)
//	            prm.action_errors, prm.sh_us_p50, prm.reload_ms_p50,
//	            prm.cpu_share, policy.cpu_share
//	telemetry/  telemetry.scrapes, .series, .journal_events,       sim_us_per_s, step_ms_p90 on observe
//	metric      .export_bytes, .ns_per_scrape, .export_ms_p50,     (flat on colocate)
//	            telemetry.cpu_share, metric.cpu_share
//	trace       trace.finished, trace.dropped_spans,               sim_us_per_s, heap_mb_per_server on observe
//	            trace.cpu_share
//	workload    workload.lc_p95_us (simulated), lc_completed,      none: a change on a speed-only
//	            workload.cpu_share                                 change is a fidelity bug
//	pard        pard.build_ms, pard.provision_ms, pard.cpu_share   setup_s on rack8, cluster_fabric
//	runtime     runtime.allocs_per_event, .bytes_per_event,        step_ms_p90 on cluster_fabric;
//	            .gc_cycles, .gc_pause_ms, runtime.cpu_share        heap_mb_per_server on rack8, observe
//	bench       bench.cpu_share, bench.trace_overhead,             none: they keep the tracing honest
//	            bench.profile_samples, bench.profile_coverage
//
// Counts are over the traced timed phase and repeat exactly for a seed
// and step count. <L>.cpu_share is layer L's share of the phase's
// profile samples; <L>.ns_per_<unit> is that share times the phase's
// process CPU time (getrusage) divided by the layer's count;
// *_p50 metrics are medians of the named spans; bench.trace_overhead is
// 1 - traced / untraced sim_us_per_s; bench.profile_coverage is profiled
// CPU time over getrusage CPU time.
//
// # Attribution rule and its limits
//
// Each profile sample goes to the leaf-most frame, inlined frames
// included, whose function belongs to the repository (repro/...) or to
// this package (main.*); a sample with no such frame goes to runtime.
// So:
//
//   - Sampling is at 100 Hz: a 25 s phase gives about 2500 samples, and a
//     layer's share carries a sampling error of roughly
//     sqrt(share * (1 - share) / samples), under 1 point at a 20% share.
//   - Background GC workers and the scheduler are charged to runtime, not
//     to the layer that allocated; a GC assist runs inside the
//     allocating call and is charged to that call's layer.
//   - Runtime helpers called from repository code (map access, memmove,
//     allocation) are charged to the calling layer.
//   - On cluster_fabric two workers run shards in parallel, so profiled
//     CPU time exceeds wall time; shares are of CPU, not of wall time.
package main
