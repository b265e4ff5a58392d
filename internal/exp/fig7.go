package exp

import (
	"fmt"
	"io"

	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pard"
)

// Fig7Config parameterizes the hardware-virtualization demonstration
// (paper Figure 7): a PARD server is dynamically partitioned into
// LDoms that boot in turn, run 437.leslie3d / 470.lbm / CacheFlush, and
// are then repartitioned with the paper's three echo commands. The
// figure plots per-LDom occupied LLC capacity and memory bandwidth.
type Fig7Config struct {
	Total       sim.Tick
	SampleEvery sim.Tick
	Boot1       sim.Tick // LDom1 created
	Boot2       sim.Tick // LDom2 created
	FlushStart  sim.Tick // LDom2 starts CacheFlush (T_CacheFlush)
	EchoAt      sim.Tick // operator runs the waymask echos
}

// DefaultFig7Config lays the events out like the paper's timeline.
func DefaultFig7Config(scale Scale) Fig7Config {
	unit := sim.Millisecond
	if scale == Full {
		unit = 10 * sim.Millisecond
	}
	return Fig7Config{
		Total:       30 * unit,
		SampleEvery: 100 * sim.Microsecond,
		Boot1:       1 * unit,
		Boot2:       2 * unit,
		FlushStart:  12 * unit,
		EchoAt:      20 * unit,
	}
}

// Fig7Event is an annotated timeline event.
type Fig7Event struct {
	When sim.Tick
	What string
}

// Fig7Result carries the timelines and the isolation summary.
type Fig7Result struct {
	Cfg       Fig7Config
	Occupancy []*metric.Series // MB, indexed by LDom
	Bandwidth []*metric.Series // GB/s, indexed by LDom
	Events    []Fig7Event

	// LDom0 occupied-LLC summary (MB): steady state, after CacheFlush
	// starts stealing, and after the echo repartition.
	OccBeforeFlush, OccDuringFlush, OccAfterEcho float64
}

// Fig7 runs the scenario.
func Fig7(cfg Fig7Config) *Fig7Result {
	cfgSys := pard.DefaultConfig()
	cfgSys.SampleInterval = 50 * sim.Microsecond
	sys := pard.NewSystem(cfgSys)
	e := sys.Engine
	res := &Fig7Result{Cfg: cfg}
	n := timelineSamples(cfg.Total, cfg.SampleEvery)
	for i := 0; i < 3; i++ {
		res.Occupancy = append(res.Occupancy, metric.NewSeries(fmt.Sprintf("ldom%d_occ_mb", i), n))
		res.Bandwidth = append(res.Bandwidth, metric.NewSeries(fmt.Sprintf("ldom%d_bw_gbs", i), n))
	}
	note := func(what string) {
		res.Events = append(res.Events, Fig7Event{When: e.Now(), What: what})
	}

	// LDom0 boots immediately and runs the leslie3d proxy.
	sys.CreateLDom(pard.LDomConfig{Name: "ldom0", Cores: []int{0}, MemBase: 0})
	note("create LDom0, boot OS")
	sys.RunWorkload(0, workload.NewLeslie3d(0))
	note("LDom0: run 437.leslie3d")

	e.Schedule(cfg.Boot1, func() {
		sys.CreateLDom(pard.LDomConfig{Name: "ldom1", Cores: []int{1}, MemBase: 2 << 30})
		note("create LDom1, boot OS")
		sys.RunWorkload(1, workload.NewLBM(0))
		note("LDom1: run 470.lbm")
	})
	e.Schedule(cfg.Boot2, func() {
		sys.CreateLDom(pard.LDomConfig{Name: "ldom2", Cores: []int{2}, MemBase: 4 << 30})
		note("create LDom2, boot OS (idle until T_CacheFlush)")
	})
	e.Schedule(cfg.FlushStart, func() {
		sys.RunWorkload(2, &workload.CacheFlush{Base: 0, Footprint: 16 << 20, Seed: 3})
		note("LDom2: run CacheFlush (T_CacheFlush)")
	})
	e.Schedule(cfg.EchoAt, func() {
		// The paper's three operator commands, verbatim paths.
		sys.Firmware.MustSh("echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
		sys.Firmware.MustSh("echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
		sys.Firmware.MustSh("echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom2/parameters/waymask")
		note("echo 0xFF00 > .../ldom0/waymask; echo 0x00FF > ldom1,ldom2")
	})

	var sample func()
	sample = func() {
		for ds := 0; ds < 3; ds++ {
			res.Occupancy[ds].Record(e.Now(), float64(sys.LLCOccupancyBytes(pard.DSID(ds)))/(1<<20))
			res.Bandwidth[ds].Record(e.Now(), float64(sys.MemBandwidthMBs(pard.DSID(ds)))/1000)
		}
		if e.Now() < cfg.Total {
			e.Schedule(cfg.SampleEvery, sample)
		}
	}
	e.Schedule(cfg.SampleEvery, sample)

	sys.Run(cfg.Total)
	mustKeepAll(res.Occupancy...)
	mustKeepAll(res.Bandwidth...)

	occ0 := res.Occupancy[0]
	res.OccBeforeFlush = occ0.MeanBetween(cfg.FlushStart-4*(cfg.FlushStart/10), cfg.FlushStart)
	res.OccDuringFlush = occ0.MeanBetween(cfg.EchoAt-4*(cfg.FlushStart/10), cfg.EchoAt)
	res.OccAfterEcho = occ0.MeanBetween(cfg.Total-4*(cfg.FlushStart/10), cfg.Total)
	return res
}

// IsolationRestored reports whether the echo repartition recovered
// LDom0's occupancy from the CacheFlush dip.
func (r *Fig7Result) IsolationRestored() bool {
	return r.OccDuringFlush < r.OccBeforeFlush && r.OccAfterEcho > r.OccDuringFlush
}

// Print renders the timelines.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: dynamically partition a PARD server into LDoms (occupied LLC MB / memory GB/s)")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, "LDom%d occupancy  %s  (max %.2f MB)\n", i, r.Occupancy[i].Sparkline(60), r.Occupancy[i].Max())
		fmt.Fprintf(w, "LDom%d bandwidth  %s  (max %.2f GB/s)\n", i, r.Bandwidth[i].Sparkline(60), r.Bandwidth[i].Max())
	}
	fmt.Fprintln(w, "events:")
	for _, ev := range r.Events {
		fmt.Fprintf(w, "  %v  %s\n", ev.When, ev.What)
	}
	fmt.Fprintf(w, "LDom0 occupied LLC: %.2f MB steady -> %.2f MB under CacheFlush -> %.2f MB after echo 0xFF00\n",
		r.OccBeforeFlush, r.OccDuringFlush, r.OccAfterEcho)
	if r.IsolationRestored() {
		fmt.Fprintln(w, "shape matches the paper: CacheFlush steals capacity; way partitioning restores it")
	} else {
		fmt.Fprintln(w, "WARNING: expected dip-and-recover shape not observed")
	}
}
