package exp

import (
	"fmt"
	"io"

	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pard"
)

// Fig10Config parameterizes the disk-isolation experiment (paper
// Figure 10): two LDoms both run "dd if=/dev/zero of=/dev/sdb bs=32M";
// halfway through, the operator raises LDom0's IDE bandwidth quota to
// 80% with a single echo.
type Fig10Config struct {
	Total       sim.Tick
	SampleEvery sim.Tick
	EchoAt      sim.Tick
	Quota       uint64 // the echoed percentage
}

// DefaultFig10Config mirrors the paper's run.
func DefaultFig10Config(scale Scale) Fig10Config {
	unit := sim.Millisecond
	if scale == Full {
		unit = 10 * sim.Millisecond
	}
	return Fig10Config{
		Total:       80 * unit,
		SampleEvery: 2 * unit,
		EchoAt:      40 * unit,
		Quota:       80,
	}
}

// Fig10Result carries both LDoms' bandwidth-share timelines.
type Fig10Result struct {
	Cfg    Fig10Config
	Shares []*metric.Series // percent of served disk bytes per window

	PreEchoShare0, PostEchoShare0 float64 // LDom0's share, percent
}

// Fig10 runs the scenario.
func Fig10(cfg Fig10Config) *Fig10Result {
	sysCfg := pard.DefaultConfig()
	// dd writes through the OS page cache: model a small buffered
	// write queue per LDom so the DRR scheduler sees sustained demand.
	sysCfg.IDE.QueueDepth = 4
	sys := pard.NewSystem(sysCfg)
	e := sys.Engine
	res := &Fig10Result{Cfg: cfg}
	n := timelineSamples(cfg.Total, cfg.SampleEvery)
	for i := 0; i < 2; i++ {
		res.Shares = append(res.Shares, metric.NewSeries(fmt.Sprintf("ldom%d_disk_share", i), n))
	}

	for i := 0; i < 2; i++ {
		sys.CreateLDom(pard.LDomConfig{Name: fmt.Sprintf("dd%d", i), Cores: []int{i}, MemBase: uint64(i) * (2 << 30)})
		sys.RunWorkload(i, &workload.DiskCopy{
			TotalBytes: 16 * 32 << 20, ChunkBytes: 64 << 10, Write: true, Loop: true, Compute: 200,
		})
	}

	e.Schedule(cfg.EchoAt, func() {
		sys.Firmware.MustSh(fmt.Sprintf("echo %d > /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth", cfg.Quota))
	})

	var prev [2]uint64
	var sample func()
	sample = func() {
		var cur [2]uint64
		var delta [2]float64
		var total float64
		for i := 0; i < 2; i++ {
			cur[i] = sys.IDE.Plane().Stat(pard.DSID(i), "serv_bytes")
			delta[i] = float64(cur[i] - prev[i])
			total += delta[i]
			prev[i] = cur[i]
		}
		if total > 0 {
			for i := 0; i < 2; i++ {
				res.Shares[i].Record(e.Now(), 100*delta[i]/total)
			}
		}
		if e.Now() < cfg.Total {
			e.Schedule(cfg.SampleEvery, sample)
		}
	}
	e.Schedule(cfg.SampleEvery, sample)

	sys.Run(cfg.Total)
	mustKeepAll(res.Shares...)

	settle := cfg.SampleEvery * 4
	res.PreEchoShare0 = res.Shares[0].MeanBetween(settle, cfg.EchoAt)
	res.PostEchoShare0 = res.Shares[0].MeanAfter(cfg.EchoAt + settle)
	return res
}

// QuotaApplied reports whether the echo moved LDom0's share toward the
// requested quota.
func (r *Fig10Result) QuotaApplied() bool {
	return r.PreEchoShare0 > 40 && r.PreEchoShare0 < 60 &&
		r.PostEchoShare0 > float64(r.Cfg.Quota)-10
}

// Print renders the timelines.
func (r *Fig10Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: disk I/O performance isolation (share of served disk bandwidth)")
	for i, s := range r.Shares {
		fmt.Fprintf(w, "LDom%d share  %s\n", i, s.Sparkline(60))
	}
	fmt.Fprintf(w, "echo %d > /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth at %v\n", r.Cfg.Quota, r.Cfg.EchoAt)
	fmt.Fprintf(w, "LDom0 share: %.1f%% before echo -> %.1f%% after (paper: 50%% -> ~80%%)\n",
		r.PreEchoShare0, r.PostEchoShare0)
	if !r.QuotaApplied() {
		fmt.Fprintln(w, "WARNING: quota reallocation shape not observed")
	}
}
