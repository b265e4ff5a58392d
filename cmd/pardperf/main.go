package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/pard"
)

const (
	specPath   = "BENCHMARK.json"
	policyPath = "examples/policies/llc_guard.pard"

	// setupReps is how many set-ups one group times (see measure), after
	// setupWarm untimed ones (see timeSetups).
	setupReps = 8
	setupWarm = 2
	// minSteps is the fewest timed steps a run makes, whatever
	// -seconds says. Exact counts and the digest are taken at this step,
	// so they compare across runs and hosts.
	minSteps = 60
	// backlogSlack is how far a latency-critical queue's mean depth may
	// grow from the first half of the timed steps to the second.
	backlogSlack = 8
)

func main() {
	name := flag.String("workload", "colocate", "workload to run: colocate, observe, cluster_fabric or rack8")
	seed := flag.Int64("seed", 42, "seed of the generated inputs (memcached arrivals and probes)")
	seconds := flag.Float64("seconds", 25, "wall seconds of the timed phase, which makes at least 60 steps")
	trace := flag.Int("trace", 0, "1 repeats the run traced and prints the per-layer metrics instead")
	spansPath := flag.String("spans", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "pardperf: -trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardperf:", err)
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1, *spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "pardperf:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

func run(w *workload, seed int64, seconds float64, traced bool, spansPath string) error {
	want, err := loadSpec(w.name, traced)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(policyPath)
	if err != nil {
		return err
	}
	policy := string(src)

	var res *result
	if traced {
		res, err = measureTraced(w, seed, seconds, policy, spansPath)
	} else {
		res, err = measure(w, seed, seconds, policy)
	}
	if err != nil {
		return err
	}
	if err := checkNames(res.metrics, want); err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d steps %d\n", w.name, seed, res.steps)
	fmt.Printf("digest %s at step %d\n", res.digest, res.digestStep)
	for i, n := range countNames {
		fmt.Printf("exact %s %d\n", n, res.exact[i])
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%s %.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if res.violation != nil {
		fmt.Fprintln(os.Stderr, "pardperf: check failed:", res.violation)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.violation == nil,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.violation != nil {
		os.Exit(1)
	}
	return nil
}

// result is what one invocation reports.
type result struct {
	metrics           []metric
	steps             int
	digest            string // FNV-64 of the state digest, hex
	digestStep        int
	exact             counts // timed-phase counts at digestStep
	attempted, failed uint64
	violation         error // first failed correctness check
}

// measure is the untraced run behind the end-to-end metrics. Every
// timing in it is in reference time (see hostClock).
//
// Set-up is timed in three groups of setupReps: before the warm-up,
// between warm-up and timed phase, and after the timed phase.
func measure(w *workload, seed int64, seconds float64, policy string) (*result, error) {
	clock := newHostClock()
	var setupS []float64
	r, err := timeSetups(&setupS, clock, w, seed, policy)
	if err != nil {
		return nil, err
	}
	if err := warm(r, w, nil); err != nil {
		return nil, err
	}
	if _, err := timeSetups(&setupS, clock, w, seed, policy); err != nil {
		return nil, err
	}
	ph, err := timed(r, w, untilSeconds(seconds), nil, clock, minSteps)
	if err != nil {
		return nil, err
	}
	if _, err := timeSetups(&setupS, clock, w, seed, policy); err != nil {
		return nil, err
	}
	// The clock is not used past here, so its tables are garbage and the
	// heap measured is the instance's alone.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	refNs := scaleSteps(ph.stepNs, ph.probeNs)
	stepMs := make([]float64, len(refNs))
	for i, ns := range refNs {
		stepMs[i] = ns / 1e6
	}
	fmt.Printf("host wall sim_us_per_s %.6g, probe p50 %.4g ms (reference %.4g ms)\n",
		ph.simUs()/(sum(ph.stepNs)/1e9), median(ph.probeNs)/1e6, probeNominalNs/1e6)
	res := ph.result(r)
	res.metrics = []metric{
		{"sim_us_per_s", ph.simUs() / (sum(refNs) / 1e9), "sim-us/s"},
		{"step_ms_p50", quantile(stepMs, 0.50), "ms"},
		{"step_ms_p90", quantile(stepMs, 0.90), "ms"},
		{"setup_s", quantile(setupS, 0.5), "s"},
		{"heap_mb_per_server", float64(ms.HeapAlloc) / 1e6 / float64(len(r.servers)), "MB"},
	}
	return res, nil
}

// timeSetups times a group of setupReps set-ups, scaled to reference
// time by probes taken just before, appends the times to secs and
// returns the last instance.
//
// Two things made set-up times bimodal, so that the median jumped
// between modes from run to run. The first set-ups after other work
// find the host's caches cold and take up to twice as long as the rest,
// so the group runs setupWarm of them untimed. And the collector ran
// during a build only while no instance was live (before the warm-up),
// when its heap goal was small; it is paused for the timed builds,
// which setup still separates with explicit collections.
func timeSetups(secs *[]float64, clock *hostClock, w *workload, seed int64, policy string) (*rig, error) {
	f := clock.factor(probeWindow)
	if _, _, err := setup(w, seed, policy, setupWarm, nil); err != nil {
		return nil, err
	}
	gc := debug.SetGCPercent(-1)
	r, raw, err := setup(w, seed, policy, setupReps, nil)
	debug.SetGCPercent(gc)
	for _, s := range raw {
		*secs = append(*secs, s*f)
	}
	runtime.GC()
	return r, err
}

// measureTraced runs the workload twice: untraced, to have a reference
// digest and speed, then with spans, shard timers and a CPU profile over
// the same number of timed steps. The traced run must reproduce the
// untraced digest and exact counts.
func measureTraced(w *workload, seed int64, seconds float64, policy, spansPath string) (*result, error) {
	// Both instances are the last of setupReps set-ups, so both run on
	// memory earlier instances already faulted in.
	r, _, err := setup(w, seed, policy, setupReps, nil)
	if err != nil {
		return nil, err
	}
	if err := warm(r, w, nil); err != nil {
		return nil, err
	}
	ref, err := timed(r, w, untilSeconds(seconds), nil, nil, 0)
	if err != nil {
		return nil, err
	}
	refDigest := digestHash(r.digest())
	r = nil
	runtime.GC()

	tr := newTracer(w.name)
	r, _, err = setup(w, seed, policy, setupReps, tr)
	if err != nil {
		return nil, err
	}
	if err := warm(r, w, tr); err != nil {
		return nil, err
	}
	if r.cluster != nil {
		r.cluster.Group.EnableProfileTimers()
	}
	steps := len(ref.stepNs)
	ph, err := timed(r, w, func(step int, _ float64) bool { return step >= steps }, tr, nil, 0)
	if err != nil {
		return nil, err
	}
	res := ph.result(r)
	res.digest, res.digestStep, res.exact = digestHash(r.digest()), steps, ph.delta
	if res.violation == nil && (res.digest != refDigest || ph.delta != ref.delta) {
		res.violation = fmt.Errorf("traced run diverged from the untraced run at step %d: digest %s vs %s", steps, res.digest, refDigest)
	}
	res.metrics, err = layerMetrics(r, ph, ref, tr)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.writeChrome(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup builds the workload reps times, each after a GC so earlier
// instances' garbage is not charged to it, and returns the last
// instance with every set-up's wall time in seconds.
func setup(w *workload, seed int64, policy string, reps int, tr *tracer) (*rig, []float64, error) {
	var r *rig
	var secs []float64
	for i := 0; i < reps; i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.build(seed, policy, tr); err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return r, secs, nil
}

// warm runs the untimed warm-up: caches fill and memcached loads its
// dataset. Every latency-critical tenant must have served a request by
// its end; their statistics are then reset for the timed phase.
func warm(r *rig, w *workload, tr *tracer) error {
	tr.do("warm", -1, func() { r.run(w.warm) })
	for i, mc := range r.lc {
		if mc.Completed == 0 {
			return fmt.Errorf("warm-up of %v left memcached %d with no completed request", w.warm, i)
		}
		mc.ResetStats()
	}
	runtime.GC()
	return nil
}

func untilSeconds(seconds float64) func(step int, elapsedNs float64) bool {
	return func(step int, elapsedNs float64) bool {
		return step >= minSteps && elapsedNs >= seconds*1e9
	}
}

// phase is one timed phase's record.
type phase struct {
	step    pard.Tick
	stepNs  []float64 // wall time of each step
	probeNs []float64 // wall time of the host probe after each step
	pending []float64 // events pending after each step
	queues  [][]int   // memcached queue depth per step, per tenant
	qMax    uint64    // deepest switch queue seen after any step
	delta   counts    // counts over the whole phase
	check   counts    // counts over the first checkAt steps
	digest  string    // digest hash after step checkAt
	mem     [2]runtime.MemStats
	cpuNs   int64 // process CPU time (getrusage) over the phase
	prof    []byte
	checkAt int
}

func (p *phase) simUs() float64 {
	return float64(len(p.stepNs)) * float64(p.step) / float64(pard.Microsecond)
}

// timed runs steps until stop, given the phase's wall time so far, says
// so. checkAt > 0 snapshots the exact counts and the digest after that
// step (between steps, untimed). A traced phase records spans and a CPU
// profile; a phase with a clock probes the host after every step.
func timed(r *rig, w *workload, stop func(step int, elapsedNs float64) bool, tr *tracer, clock *hostClock, checkAt int) (*phase, error) {
	ph := &phase{step: w.step, checkAt: checkAt}
	base := snapshot(r)
	var prof bytes.Buffer
	runtime.ReadMemStats(&ph.mem[0])
	cpu0 := cpuTime()
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for step := 1; ; step++ {
		t0 := time.Now()
		sid := tr.begin("step", -1)
		tr.do("run", sid, func() { r.run(w.step) })
		if r.ops != nil {
			if err := r.ops(step, tr, sid); err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
		}
		tr.end(sid)
		ph.stepNs = append(ph.stepNs, float64(time.Since(t0).Nanoseconds()))
		if clock != nil {
			ph.probeNs = append(ph.probeNs, clock.probe())
		}
		ph.sampleGauges(r)
		if step == checkAt {
			ph.check = snapshot(r).minus(base)
			ph.digest = digestHash(r.digest())
			runtime.GC()
		}
		if stop(step, float64(time.Since(start).Nanoseconds())) {
			break
		}
	}
	if tr != nil {
		pprof.StopCPUProfile()
		ph.prof = prof.Bytes()
	}
	ph.cpuNs = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.mem[1])
	ph.delta = snapshot(r).minus(base)
	return ph, nil
}

// sampleGauges records the step-boundary gauges.
func (p *phase) sampleGauges(r *rig) {
	var pending int
	qs := make([]int, len(r.lc))
	for i, mc := range r.lc {
		qs[i] = mc.QueueDepth()
	}
	p.queues = append(p.queues, qs)
	if r.cluster == nil {
		pending = r.servers[0].Engine.Pending()
	} else {
		g := r.cluster.Group
		for i := 0; i < g.NumShards(); i++ {
			pending += g.Shard(i).Engine().Pending()
		}
		for _, sw := range r.cluster.Switches() {
			st := sw.Plane().Stats()
			var depth uint64
			for _, ds := range st.Rows() {
				depth += sw.Plane().Stat(ds, "q_depth")
			}
			if depth > p.qMax {
				p.qMax = depth
			}
		}
	}
	p.pending = append(p.pending, float64(pending))
}

// result runs the correctness checks and fills the shared fields.
func (p *phase) result(r *rig) *result {
	res := &result{
		steps:      len(p.stepNs),
		digest:     p.digest,
		digestStep: p.checkAt,
		exact:      p.check,
		attempted:  p.delta[cLCArrived] + p.delta[cNICTx],
		// NIC discards are not failures: a NIC broadcasts each frame on
		// the rack ring as well as its uplink, and the ring peer that is
		// not the destination discards its copy.
		failed: p.delta[cSwitchDropped],
	}
	res.violation = checks(r, p)
	return res
}

// checks are the invariants every run must hold.
func checks(r *rig, p *phase) error {
	if r.guarded {
		for i, s := range r.servers {
			if s.Firmware.TriggersHandled == 0 {
				return fmt.Errorf("llc_guard never fired on server %d", i)
			}
		}
	}
	total := snapshot(r)
	if total[cNICTx] < total[cNICRx]+total[cSwitchDropped] {
		return fmt.Errorf("frames not conserved: %d sent < %d received + %d dropped by switches",
			total[cNICTx], total[cNICRx], total[cSwitchDropped])
	}
	// Half means, not the depths at two instants: at ~80% load one
	// tenant's queue exceeds 8 at a random instant with probability
	// ~0.1, so instants flag stable queues on most 8-server runs.
	half := len(p.queues) / 2
	for i := range r.lc {
		first, second := meanDepth(p.queues[:half], i), meanDepth(p.queues[half:], i)
		if second > first+backlogSlack {
			return fmt.Errorf("memcached %d backlog grows: mean queue %.1f over the first %d steps, %.1f over the rest",
				i, first, half, second)
		}
	}
	if p.delta[cLCCompleted] == 0 {
		return errors.New("no latency-critical request completed in the timed phase")
	}
	return nil
}

// meanDepth is tenant i's mean queue depth over the given steps.
func meanDepth(steps [][]int, i int) float64 {
	var total float64
	for _, qs := range steps {
		total += float64(qs[i])
	}
	return total / float64(len(steps))
}

// layerMetrics derives the per-layer metrics of a traced phase; ref is
// the untraced phase of the same length.
func layerMetrics(r *rig, ph, ref *phase, tr *tracer) ([]metric, error) {
	split, err := attribute(ph.prof)
	if err != nil {
		return nil, err
	}
	d := ph.delta
	simUs := ph.simUs()
	cpuNs := float64(ph.cpuNs)
	// nsPer charges layer l's share of the phase's CPU time to n units
	// of its work.
	nsPer := func(l string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return split.share(l) * cpuNs / float64(n)
	}
	var shard struct{ run, wait, peak float64 }
	var windows, shards float64
	if r.cluster != nil {
		g := r.cluster.Group
		shards = float64(g.NumShards())
		windows = float64(d[cWindows])
		for i := 0; i < g.NumShards(); i++ {
			pr := g.Profile(i)
			shard.run += float64(pr.RunNs)
			shard.wait += float64(pr.WaitNs)
			shard.peak = math.Max(shard.peak, float64(pr.MailboxPeak))
		}
	}
	var qlat, qlatRows float64
	for _, s := range r.servers {
		p := s.Mem.Plane()
		for _, ds := range p.Stats().Rows() {
			qlat += float64(p.Stat(ds, "avg_qlat")) / 10
			qlatRows++
		}
	}
	var lcP95 float64
	for _, mc := range r.lc {
		lcP95 = math.Max(lcP95, mc.TailLatencyMs(0.95)*1000)
	}
	m0, m1 := ph.mem[0], ph.mem[1]
	events := float64(d[cEvents])

	ms := []metric{
		{"sim.events", events, "count"},
		{"sim.events_per_sim_us", events / simUs, "events/sim-us"},
		{"sim.pending_p50", quantile(ph.pending, 0.5), "count"},
		{"sim.ns_per_event", nsPer("sim.engine", d[cEvents]), "ns"},
		{"sim.shard.windows_per_sim_ms", windows / (simUs / 1000), "1/sim-ms"},
		{"sim.shard.idle_skip_ratio", ratio(float64(d[cIdleSkips]), windows*shards), "ratio"},
		{"sim.shard.cross_sends", float64(d[cCrossSends]), "count"},
		{"sim.shard.mailbox_peak", shard.peak, "count"},
		{"sim.shard.horizon_utilization", ratio(float64(d[cSpanned]), float64(len(ph.stepNs))*float64(ph.step)), "ratio"},
		{"sim.shard.run_share", ratio(shard.run, shard.run+shard.wait), "share"},
		{"sim.shard.wait_share", ratio(shard.wait, shard.run+shard.wait), "share"},
		{"cpu.ops", float64(d[cCPUOps]), "count"},
		{"cpu.stall_frac", ratio(float64(d[cCPUStall]), float64(d[cCPUTicks])), "ratio"},
		{"cache.llc_accesses", float64(d[cLLCAccesses]), "count"},
		{"cache.llc_miss_ratio", ratio(float64(d[cLLCMisses]), float64(d[cLLCAccesses])), "ratio"},
		{"cache.ns_per_llc_access", nsPer("cache", d[cLLCAccesses]), "ns"},
		{"dram.requests", float64(d[cDRAMServed]), "count"},
		{"dram.avg_qlat", ratio(qlat, qlatRows), "cycles"},
		{"dram.ns_per_request", nsPer("dram", d[cDRAMServed]), "ns"},
		{"iodev.tx_frames", float64(d[cNICTx]), "count"},
		{"iodev.rx_frames", float64(d[cNICRx]), "count"},
		{"iodev.ns_per_frame", nsPer("iodev", d[cNICTx]+d[cNICRx]), "ns"},
		{"fabric.forwarded", float64(d[cSwitchFwd]), "count"},
		{"fabric.dropped", float64(d[cSwitchDropped]), "count"},
		{"fabric.q_depth_max", float64(ph.qMax), "count"},
		{"fabric.ns_per_forward", nsPer("fabric", d[cSwitchFwd]), "ns"},
		{"prm.triggers_handled", float64(d[cTrigHandled]), "count"},
		{"prm.triggers_suppressed", float64(d[cTrigSuppressed]), "count"},
		{"prm.action_errors", float64(d[cActionErrors]), "count"},
		{"prm.sh_us_p50", tr.medianMs("op.sh") * 1000, "us"},
		{"prm.reload_ms_p50", tr.medianMs("op.reload"), "ms"},
		{"telemetry.scrapes", float64(d[cScrapes]), "count"},
		{"telemetry.series", float64(seriesCount(r)), "count"},
		{"telemetry.journal_events", float64(d[cJournal]), "count"},
		{"telemetry.export_bytes", float64(r.exportBytes), "B"},
		{"telemetry.ns_per_scrape", nsPer("telemetry", d[cScrapes]), "ns"},
		{"telemetry.export_ms_p50", tr.medianMs("op.export"), "ms"},
		{"trace.finished", float64(d[cTraceFinished]), "count"},
		{"trace.dropped_spans", float64(d[cTraceDropped]), "count"},
		{"workload.lc_p95_us", lcP95, "sim-us"},
		{"workload.lc_completed", float64(d[cLCCompleted]), "count"},
		{"pard.build_ms", tr.medianMs("setup.build"), "ms"},
		{"pard.provision_ms", tr.medianMs("setup.provision"), "ms"},
		{"runtime.allocs_per_event", ratio(float64(m1.Mallocs-m0.Mallocs), events), "count"},
		{"runtime.bytes_per_event", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), events), "B"},
		{"runtime.gc_cycles", float64(m1.NumGC - m0.NumGC), "count"},
		{"runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		{"bench.trace_overhead", 1 - sum(ref.stepNs)/sum(ph.stepNs), "ratio"},
		{"bench.profile_samples", float64(split.samples), "count"},
		{"bench.profile_coverage", ratio(float64(split.cpuNs), cpuNs), "ratio"},
	}
	// Every sample is charged to exactly one of layers, so the shares
	// sum to 1.
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_share", split.share(l), "share"})
	}
	return ms, nil
}

func seriesCount(r *rig) int {
	n := 0
	for _, s := range r.servers {
		if s.Telemetry != nil {
			n += len(s.Telemetry.Series())
		}
	}
	return n
}

// Counts the benchmark reads from the program. Each is cumulative in
// the program; phases report differences.
const (
	cEvents = iota
	cCPUOps
	cCPUStall
	cCPUTicks
	cLLCAccesses
	cLLCMisses
	cDRAMServed
	cNICTx
	cNICRx
	cNICDropped
	cSwitchFwd
	cSwitchDropped
	cTrigHandled
	cTrigSuppressed
	cActionErrors
	cScrapes
	cJournal
	cTraceFinished
	cTraceDropped
	cLCArrived
	cLCCompleted
	cWindows
	cIdleSkips
	cCrossSends
	cSpanned
	nCounts
)

var countNames = [nCounts]string{
	"events", "cpu_ops", "cpu_stall_ticks", "cpu_ticks", "llc_accesses", "llc_misses",
	"dram_served", "nic_tx", "nic_rx", "nic_dropped", "switch_forwarded", "switch_dropped",
	"triggers_handled", "triggers_suppressed", "action_errors", "scrapes", "journal_events",
	"trace_finished", "trace_dropped", "lc_arrived", "lc_completed",
	"windows", "idle_skips", "cross_sends", "spanned_ticks",
}

type counts [nCounts]uint64

func (c counts) minus(base counts) counts {
	for i := range c {
		c[i] -= base[i]
	}
	return c
}

func snapshot(r *rig) counts {
	var c counts
	for _, s := range r.servers {
		for _, core := range s.Cores {
			c[cCPUOps] += core.Loads + core.Stores + core.DiskOps + core.ComputeOps
			c[cCPUStall] += uint64(core.StallTicks)
			c[cCPUTicks] += uint64(core.BusyTicks + core.StallTicks + core.IdleTicks)
		}
		c[cLLCAccesses] += s.LLC.Hits + s.LLC.Misses
		c[cLLCMisses] += s.LLC.Misses
		c[cDRAMServed] += s.Mem.Served
		c[cNICTx] += s.NIC.TxFrames
		c[cNICRx] += s.NIC.RxFrames
		c[cNICDropped] += s.NIC.DroppedFrames
		c[cTrigHandled] += s.Firmware.TriggersHandled
		c[cTrigSuppressed] += s.Firmware.TriggersSuppressed
		c[cActionErrors] += s.Firmware.ActionErrors
		if s.Telemetry != nil {
			c[cScrapes] += s.Telemetry.Scrapes()
		}
		c[cJournal] += s.Journal.NextSeq()
		if s.Recorder != nil {
			c[cTraceFinished] += s.Recorder.Finished()
			c[cTraceDropped] += s.Recorder.DroppedSpans()
		}
	}
	for _, mc := range r.lc {
		c[cLCArrived] += mc.Arrived
		c[cLCCompleted] += mc.Completed
	}
	if r.cluster == nil {
		c[cEvents] = r.servers[0].Engine.Executed()
		return c
	}
	g := r.cluster.Group
	for i := 0; i < g.NumShards(); i++ {
		c[cEvents] += g.Shard(i).Engine().Executed()
	}
	for _, sw := range r.cluster.Switches() {
		c[cSwitchFwd] += sw.Forwarded
		c[cSwitchDropped] += sw.Dropped
	}
	c[cWindows] = g.WindowsRun
	c[cIdleSkips] = g.IdleSkips
	c[cCrossSends] = g.CrossSends
	c[cSpanned] = uint64(g.SpannedTicks)
	return c
}

// digestHash shortens a state digest to its FNV-64a hash.
func digestHash(d string) string {
	h := fnv.New64a()
	h.Write([]byte(d))
	return fmt.Sprintf("%016x", h.Sum64())
}

// cpuTime is the process's user plus system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile is the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadSpec reads the metric names and units BENCHMARK.json promises for
// this mode, and checks the workload is one it names.
func loadSpec(workload string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == workload
	}
	if !listed {
		return nil, fmt.Errorf("%s does not list workload %q", specPath, workload)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

// checkNames holds the printed metrics to exactly the names and units
// BENCHMARK.json lists.
func checkNames(ms []metric, want map[string]string) error {
	var problems []string
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.name] = true
		unit, ok := want[m.name]
		switch {
		case !ok:
			problems = append(problems, m.name+" is not listed")
		case unit != m.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %s, listed as %s", m.name, m.unit, unit))
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", m.name, m.value))
		}
	}
	for name := range want {
		if !seen[name] {
			problems = append(problems, name+" is listed but not measured")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with %s: %s", specPath, strings.Join(problems, "; "))
	}
	return nil
}
