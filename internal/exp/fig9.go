package exp

import (
	"fmt"
	"io"

	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/pard"
)

// Fig9Config parameterizes the trigger⇒action verification (paper
// Figure 9): memcached at 20 KRPS co-located with 3 STREAM LDoms, the
// miss-rate trigger installed; the figure tracks LDom0's LLC miss rate
// as the STREAM LDoms start and the trigger fires.
type Fig9Config struct {
	KRPS        float64
	Duration    sim.Tick
	SampleEvery sim.Tick
	// StreamStart delays the three STREAM LDoms, reproducing the
	// figure's "memcached only" -> "3*STREAM startup" -> "trigger"
	// phases.
	StreamStart sim.Tick
	// InstallAt is when the operator installs the trigger. The paper
	// warms memcached from a checkpoint before measuring, so its miss
	// rate starts at ~7%; here the trigger is installed once the cold
	//-start misses have drained.
	InstallAt sim.Tick
}

// DefaultFig9Config mirrors the paper's 20 KRPS run.
func DefaultFig9Config(scale Scale) Fig9Config {
	cfg := Fig9Config{KRPS: 20, SampleEvery: 100 * sim.Microsecond}
	if scale == Full {
		cfg.Duration = 160 * sim.Millisecond
		cfg.StreamStart = 40 * sim.Millisecond
		cfg.InstallAt = 20 * sim.Millisecond
	} else {
		cfg.Duration = 40 * sim.Millisecond
		cfg.StreamStart = 10 * sim.Millisecond
		cfg.InstallAt = 5 * sim.Millisecond
	}
	return cfg
}

// Fig9Result is the miss-rate timeline.
type Fig9Result struct {
	Cfg       Fig9Config
	MissRate  *metric.Series // 0.1% units over time
	FiredAt   sim.Tick       // when the firmware ran the action (0 = never)
	PreFire   float64        // mean miss rate before the action, 0.1% units
	PostFire  float64        // mean miss rate after (excluding transition)
	WaymaskAt string         // ldom0 waymask at the end
}

// Fig9 runs the timeline.
func Fig9(cfg Fig9Config) *Fig9Result {
	c := newColocation(cfg.KRPS*1000, ArmShared, cfg.StreamStart)
	n := timelineSamples(cfg.Duration, cfg.SampleEvery)
	res := &Fig9Result{Cfg: cfg, MissRate: metric.NewSeries("llc_missrate_ldom0", n)}

	e := c.Sys.Engine
	e.Schedule(cfg.InstallAt, func() {
		if err := c.Sys.InstallLLCGuard(pard.LLCGuardTrigger); err != nil {
			panic("exp: llc guard: " + err.Error())
		}
	})

	var sample func()
	sample = func() {
		res.MissRate.Record(e.Now(), float64(c.Sys.LLC.MissRate(0)))
		if e.Now() < cfg.Duration {
			e.Schedule(cfg.SampleEvery, sample)
		}
	}
	e.Schedule(cfg.SampleEvery, sample)
	c.Sys.Run(cfg.Duration)
	mustKeepAll(res.MissRate)

	// The audit journal records the exact firing tick.
	for i := 0; i < c.Sys.Journal.Len(); i++ {
		if ev := c.Sys.Journal.At(i); ev.Kind == telemetry.KindTriggerFired {
			res.FiredAt = ev.When
			break
		}
	}

	if res.FiredAt > 0 {
		// "Before" is the interference peak: the miss-rate reading that
		// tripped the trigger remains in the statistics window briefly
		// after the action, so the peak around the firing instant is
		// the pre-action level the paper plots (>30%).
		res.PreFire = res.MissRate.MaxBetween(cfg.StreamStart, res.FiredAt+sim.Millisecond)
		// Skip a short transition while the repartitioned LLC refills.
		settle := res.FiredAt + 5*sim.Millisecond
		if settle > cfg.Duration {
			settle = res.FiredAt
		}
		res.PostFire = res.MissRate.MeanAfter(settle)
	} else {
		res.PreFire = res.MissRate.Mean()
	}
	res.WaymaskAt = c.Sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
	return res
}

// Print renders the timeline.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: memcached LLC miss rate over time (%.0f KRPS, trigger installed)\n", r.Cfg.KRPS)
	fmt.Fprintf(w, "miss rate timeline: %s\n", r.MissRate.Sparkline(60))
	if r.FiredAt > 0 {
		fmt.Fprintf(w, "trigger fired at %v; ldom0 waymask now %s\n", r.FiredAt, r.WaymaskAt)
		fmt.Fprintf(w, "peak miss rate before: %s   mean after: %s (paper: >30%% -> ~10%%)\n",
			metric.FormatPerMil(uint64(r.PreFire)), metric.FormatPerMil(uint64(r.PostFire)))
	} else {
		fmt.Fprintf(w, "trigger never fired; mean miss rate %s\n", metric.FormatPerMil(uint64(r.PreFire)))
	}
}
