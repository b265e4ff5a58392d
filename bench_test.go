package repro

// One benchmark per table and figure of the paper's evaluation (§7),
// plus the DESIGN.md ablations and component micro-benchmarks. Each
// figure benchmark runs a time-reduced variant of the corresponding
// harness in internal/exp and reports the headline quantity as a custom
// metric; `go run ./cmd/pardbench -scale full` regenerates the
// publication-scale numbers recorded in EXPERIMENTS.md.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pard"
)

// Table 2: simulation parameters, read back from a constructed system.
func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table2()
		if len(t.Rows) == 0 {
			b.Fatal("empty Table 2")
		}
	}
}

// Table 3: control-plane table registry across all five planes.
func BenchmarkTable3Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table3()
		if len(t.Planes) != 5 {
			b.Fatalf("planes = %d", len(t.Planes))
		}
	}
}

// Figure 7: dynamic partitioning timelines (occupancy dip and recovery).
func BenchmarkFig7Virtualization(b *testing.B) {
	cfg := exp.DefaultFig7Config(exp.Quick)
	cfg.Total = 15 * sim.Millisecond
	cfg.Boot1, cfg.Boot2 = sim.Millisecond, 2*sim.Millisecond
	cfg.FlushStart, cfg.EchoAt = 6*sim.Millisecond, 10*sim.Millisecond
	var r *exp.Fig7Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig7(cfg)
	}
	b.ReportMetric(r.OccBeforeFlush, "MB-steady")
	b.ReportMetric(r.OccDuringFlush, "MB-underflush")
	b.ReportMetric(r.OccAfterEcho, "MB-afterecho")
	if !r.IsolationRestored() {
		b.Fatal("dip-and-recover shape not observed")
	}
}

// Figure 8: memcached p95 tail latency, one representative load per arm.
func BenchmarkFig8TailLatency(b *testing.B) {
	cfg := exp.Fig8Config{
		KRPS:    []float64{20},
		Warm:    5 * sim.Millisecond,
		Measure: 15 * sim.Millisecond,
		Arms:    []exp.Arm{exp.ArmSolo, exp.ArmShared, exp.ArmTrigger},
	}
	var r *exp.Fig8Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig8(cfg)
	}
	for _, p := range r.Points {
		switch p.Arm {
		case exp.ArmSolo:
			b.ReportMetric(p.P95Ms, "ms-p95-solo")
		case exp.ArmShared:
			b.ReportMetric(p.P95Ms, "ms-p95-shared")
		case exp.ArmTrigger:
			b.ReportMetric(p.P95Ms, "ms-p95-trigger")
		}
	}
}

// Figure 9: trigger => action timeline at 20 KRPS.
func BenchmarkFig9TriggerAction(b *testing.B) {
	cfg := exp.DefaultFig9Config(exp.Quick)
	cfg.Duration = 20 * sim.Millisecond
	cfg.InstallAt = 2 * sim.Millisecond
	cfg.StreamStart = 5 * sim.Millisecond
	var r *exp.Fig9Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig9(cfg)
	}
	if r.FiredAt == 0 {
		b.Fatal("trigger never fired")
	}
	b.ReportMetric(r.PreFire/10, "%missrate-before")
	b.ReportMetric(r.PostFire/10, "%missrate-after")
}

// Figure 10: disk bandwidth isolation with a mid-run quota change.
func BenchmarkFig10DiskQoS(b *testing.B) {
	cfg := exp.DefaultFig10Config(exp.Quick)
	var r *exp.Fig10Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig10(cfg)
	}
	b.ReportMetric(r.PreEchoShare0, "%share-before")
	b.ReportMetric(r.PostEchoShare0, "%share-after")
	if !r.QuotaApplied() {
		b.Fatal("quota reallocation shape not observed")
	}
}

// Figure 11: memory queueing-delay CDF at inject rate 0.44.
func BenchmarkFig11MemQueueing(b *testing.B) {
	cfg := exp.DefaultFig11Config(exp.Quick)
	cfg.Requests = 10000
	var r *exp.Fig11Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig11(cfg)
	}
	b.ReportMetric(r.Baseline.Mean(), "cyc-baseline")
	b.ReportMetric(r.High.Mean(), "cyc-high")
	b.ReportMetric(r.Low.Mean(), "cyc-low")
	b.ReportMetric(r.Speedup(), "x-speedup")
	if r.Speedup() < 1.5 {
		b.Fatalf("priority speedup %.2f too weak", r.Speedup())
	}
}

// Figure 12: FPGA resource cost model.
func BenchmarkFig12FPGAModel(b *testing.B) {
	var r *exp.Fig12Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig12()
	}
	b.ReportMetric(r.MemOverheadPct, "%mem-overhead")
	b.ReportMetric(r.LLCOverheadPct, "%llc-overhead")
}

// §7.2 latency claim: LLC control plane adds no cycles.
func BenchmarkLLCControlPlaneLatency(b *testing.B) {
	var r *exp.LLCLatencyResult
	for i := 0; i < b.N; i++ {
		r = exp.LLCLatency(200)
	}
	if !r.ZeroOverhead() {
		b.Fatalf("control plane added latency: %v vs %v", r.HitWithCP, r.HitWithoutCP)
	}
	b.ReportMetric(float64(r.HitWithCP)/1000, "ns-hit")
}

// Ablation: owner vs requester writeback tagging (paper §4.1).
func BenchmarkAblationWritebackTag(b *testing.B) {
	var r *exp.AblationWritebackResult
	for i := 0; i < b.N; i++ {
		r = exp.AblationWriteback()
	}
	b.ReportMetric(100*r.Misattributed, "%misattributed")
	if r.ByOwner[0] == 0 {
		b.Fatal("no writebacks attributed to the dirtying LDom")
	}
}

// Ablation: per-DS-id extra row buffer (paper §4.2).
func BenchmarkAblationRowBuffer(b *testing.B) {
	var r *exp.AblationRowBufferResult
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFig11Config(exp.Quick)
		cfg.Requests = 5000
		without := cfg
		without.RowBuffers = 1
		r = &exp.AblationRowBufferResult{
			WithExtra:    exp.Fig11(cfg),
			WithoutExtra: exp.Fig11(without),
		}
	}
	b.ReportMetric(r.WithExtra.High.Mean(), "cyc-high-2buf")
	b.ReportMetric(r.WithoutExtra.High.Mean(), "cyc-high-1buf")
}

// Ablation: mask-restricted victim selection vs unrestricted PLRU.
func BenchmarkAblationPartition(b *testing.B) {
	var r *exp.AblationPartitionResult
	for i := 0; i < b.N; i++ {
		r = exp.AblationPartition()
	}
	b.ReportMetric(float64(r.ProtectedOccupancy), "blocks-protected")
	b.ReportMetric(float64(r.UnprotectedOccupancy), "blocks-unprotected")
	if r.ProtectedOccupancy <= r.UnprotectedOccupancy {
		b.Fatal("partitioning did not protect the victim")
	}
}

// Ablation: LLC replacement policy comparison.
func BenchmarkAblationReplacement(b *testing.B) {
	var r *exp.AblationReplacementResult
	for i := 0; i < b.N; i++ {
		r = exp.AblationReplacement()
	}
	b.ReportMetric(100*r.HitRate["plru"], "%hit-plru")
	b.ReportMetric(100*r.HitRate["lru"], "%hit-lru")
	b.ReportMetric(100*r.HitRate["random"], "%hit-random")
}

// Extension (§8): per-DS-id memory compression engine.
func BenchmarkExtensionCompression(b *testing.B) {
	var r *exp.CompressionResult
	for i := 0; i < b.N; i++ {
		r = exp.Compression(300)
	}
	b.ReportMetric(r.BandwidthGain(), "x-bandwidth")
	if r.BandwidthGain() < 1.5 {
		b.Fatalf("compression gain %.2fx too weak", r.BandwidthGain())
	}
}

// Extension (§8): SDN flow-id -> DS-id steering on the NIC.
func BenchmarkExtensionFlowSteering(b *testing.B) {
	var r *exp.FlowSteeringResult
	for i := 0; i < b.N; i++ {
		r = exp.FlowSteering(100)
	}
	b.ReportMetric(float64(r.Migrated), "bytes-migrated")
}

// Component micro-benchmarks: raw model throughput.

// benchTick is a self-rescheduling eventer: the allocation-free
// scheduling path (the tentpole workload recorded in BENCH.json; also
// run in-process by `pardbench -json`).
type benchTick struct {
	e        *sim.Engine
	n, limit int
}

func (t *benchTick) RunEvent() {
	t.n++
	if t.n < t.limit {
		t.e.ScheduleEventer(1, t)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	tick := &benchTick{e: e, limit: b.N}
	e.ScheduleEventer(1, tick)
	b.ResetTimer()
	e.Drain(0)
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	e.Drain(0)
}

func BenchmarkLLCHitPath(b *testing.B) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	c := cache.New(e, sim.NewClock(e, 500), ids, cache.Config{
		Name: "llc", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64,
		HitLatency: 20, ControlPlane: true,
	}, nopMem{e})
	warm := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, 0)
	c.Request(warm)
	e.StepUntil(warm.Completed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, e.Now())
		c.Request(p)
		e.StepUntil(p.Completed)
	}
}

// The pooled hit path: NewPacket recycles, the lookup schedules through
// the packet's event slot, Complete returns the packet to the pool.
// Steady state allocates nothing (see TestRequestChainZeroAlloc).
func BenchmarkLLCHitPathPooled(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	ids := &core.IDSource{}
	ids.EnablePool()
	c := cache.New(e, sim.NewClock(e, 500), ids, cache.Config{
		Name: "llc", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64,
		HitLatency: 20, ControlPlane: true,
	}, nopMem{e})
	warm := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, 0)
	c.Request(warm)
	e.StepUntil(warm.Completed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, e.Now())
		c.Request(p)
		for !p.Completed() {
			e.Step()
		}
	}
}

// The same hit path with the flight recorder attached at the default
// 1-in-64 sampling: the documented cost of leaving tracing enabled in
// production (63 of 64 packets take only the mask check per hook).
func BenchmarkLLCHitPathTraced(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	ids := &core.IDSource{}
	ids.EnablePool()
	c := cache.New(e, sim.NewClock(e, 500), ids, cache.Config{
		Name: "llc", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64,
		HitLatency: 20, ControlPlane: true,
	}, nopMem{e})
	rec := trace.NewRecorder(e, 64)
	c.AttachRecorder(rec)
	warm := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, 0)
	c.Request(warm)
	e.StepUntil(warm.Completed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, e.Now())
		c.Request(p)
		for !p.Completed() {
			e.Step()
		}
	}
	// Early sizing rounds issue too few packets to hit a multiple-of-64
	// ID; only the real rounds must have sampled something.
	if b.N >= 128 && rec.Finished() == 0 {
		b.Fatal("recorder sampled nothing")
	}
}

func BenchmarkDRAMScheduler(b *testing.B) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	ctrl := dram.New(e, ids, dram.DefaultConfig())
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPacket(ids, core.KindMemRead, core.DSID(i%4), uint64(i*64)%(1<<26), 64, e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		ctrl.Request(p)
		if i%16 == 15 {
			e.StepUntil(func() bool { return done > i-8 })
		}
	}
	e.StepUntil(func() bool { return done == b.N })
}

func BenchmarkFullSystemSimulatedMillisecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := pard.NewSystem(pard.DefaultConfig())
		sys.CreateLDom(pard.LDomConfig{Name: "a", Cores: []int{0}})
		sys.CreateLDom(pard.LDomConfig{Name: "b", Cores: []int{1}})
		sys.RunWorkload(0, pard.NewSTREAM(0))
		sys.RunWorkload(1, &workload.CacheFlush{Base: 1 << 30, Footprint: 8 << 20, Seed: 7})
		sys.Run(pard.Millisecond)
	}
}

// runRackSweep is the rack sweep's workload: a switchless ring of
// one-server racks, each server running STREAM and pumping flow-tagged
// frames to its successor, one simulated millisecond per iteration.
// The shard axis is the scaling curve recorded in BENCH.json
// (`pardbench -shards`); results are byte-identical across shard
// counts (TestParallelRackEquivalence), so the benchmark measures pure
// wall-clock, not behavior drift.
func runRackSweep(b *testing.B, servers, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		c, err := pard.NewCluster(pard.ClusterConfig{
			Racks: servers, ServersPerRack: 1, Switchless: true,
			Shards: shards, Workers: shards, Server: pard.DefaultConfig(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := pard.ProvisionClusterWorkload(c, 25); err != nil {
			b.Fatal(err)
		}
		c.Run(pard.Millisecond)
	}
}

// BenchmarkRackParallel{1,2,4} shard a 4-server ring; the 8-shard point
// runs 8 servers (one per shard). Wall-clock speedup over the 1-shard
// row is the scaling figure in EXPERIMENTS.md; it requires idle cores
// (GOMAXPROCS >= shards) to show.
func BenchmarkRackParallel1(b *testing.B) { runRackSweep(b, 4, 1) }
func BenchmarkRackParallel2(b *testing.B) { runRackSweep(b, 4, 2) }
func BenchmarkRackParallel4(b *testing.B) { runRackSweep(b, 4, 4) }
func BenchmarkRackParallel8(b *testing.B) { runRackSweep(b, 8, 8) }

type nopMem struct{ e *sim.Engine }

func (m nopMem) Request(p *core.Packet) { p.Complete(m.e.Now()) }
