package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metric"
	"repro/internal/sim"
)

// Fig11Config parameterizes the memory-queueing-delay experiment
// (paper Figure 11): a synthetic injector drives the memory controller
// at a given utilization with a 50/50 high/low priority mix, and the
// queueing delay distribution is compared between the baseline
// controller (no control plane, one FR-FCFS queue) and the PARD
// controller (priority queues + per-DS-id row buffers).
type Fig11Config struct {
	InjectRate float64 // fraction of peak bandwidth; the paper reports 0.44
	Requests   int
	HighShare  float64 // fraction of requests that are high priority
	// LowBurst is the low-priority arrival burst length: streaming and
	// batch traffic reaches the controller in cache-miss bursts, while
	// the latency-critical requester issues sparse single requests.
	LowBurst   int
	Seed       int64
	RowBuffers int // 2 = PARD's extra per-bank row buffer; 1 disables it
}

// DefaultFig11Config matches the paper's representative case.
func DefaultFig11Config(scale Scale) Fig11Config {
	n := 20000
	if scale == Full {
		n = 200000
	}
	return Fig11Config{InjectRate: 0.44, Requests: n, HighShare: 0.5, LowBurst: 4, Seed: 1, RowBuffers: 2}
}

// Fig11Result holds the three queueing-delay distributions, in memory
// cycles.
type Fig11Result struct {
	Cfg      Fig11Config
	Baseline *metric.Histogram
	High     *metric.Histogram
	Low      *metric.Histogram
}

// Fig11 runs the experiment.
func Fig11(cfg Fig11Config) *Fig11Result {
	res := &Fig11Result{Cfg: cfg}
	res.Baseline = runInjection(cfg, false)
	withCP := runInjectionBoth(cfg)
	res.High, res.Low = withCP[0], withCP[1]
	return res
}

// runInjection drives a baseline controller and returns its single
// queue-delay histogram.
func runInjection(cfg Fig11Config, controlPlane bool) *metric.Histogram {
	hs := runInjectionInto(cfg, controlPlane)
	return hs[len(hs)-1]
}

// runInjectionBoth drives a PARD controller and returns [high, low].
func runInjectionBoth(cfg Fig11Config) []*metric.Histogram {
	return runInjectionInto(cfg, true)
}

func runInjectionInto(cfg Fig11Config, controlPlane bool) []*metric.Histogram {
	e := sim.NewEngine()
	ids := core.NewIDSource()
	dcfg := dram.DefaultConfig()
	dcfg.ControlPlane = controlPlane
	dcfg.RowBuffers = cfg.RowBuffers
	if !controlPlane {
		dcfg.RowBuffers = 1
	}
	ctrl := dram.New(e, ids, dcfg)

	const hiDS, loDS = core.DSID(1), core.DSID(2)
	if controlPlane {
		ctrl.Plane().SetParam(hiDS, dram.ParamPriority, 1)
		if cfg.RowBuffers > 1 {
			ctrl.Plane().SetParam(hiDS, dram.ParamRowBuf, 1)
		}
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	lowBurst := cfg.LowBurst
	if lowBurst <= 0 {
		lowBurst = 1
	}
	// Peak service rate is one data burst per Burst cycles; each class
	// gets its share of the inject rate.
	hiGapCycles := float64(dcfg.Burst) / (cfg.InjectRate * cfg.HighShare)
	loGapCycles := float64(dcfg.Burst) * float64(lowBurst) / (cfg.InjectRate * (1 - cfg.HighShare))

	hiTotal := int(float64(cfg.Requests) * cfg.HighShare)
	loTotal := cfg.Requests - hiTotal
	var injectedHi, injectedLo, completed int
	expGap := func(mean float64) sim.Tick {
		gap := sim.Tick(r.ExpFloat64() * mean * float64(dcfg.TCK))
		if gap == 0 {
			gap = 1
		}
		return gap
	}
	// High priority: sparse Poisson singles over a small hot row set —
	// the latency-critical LDom's working set. The per-DS-id row
	// buffer (ParamRowBuf) keeps these rows open under interference,
	// which is exactly the VCM-style mechanism of §4.2.
	hotRows := make([]uint64, 4)
	for i := range hotRows {
		hotRows[i] = uint64(r.Intn(1<<24)) &^ uint64(dcfg.RowBytes-1)
	}
	sendAt := func(ds core.DSID, addr uint64) {
		p := core.NewPacket(ids, core.KindMemRead, ds, addr, 64, e.Now())
		p.OnDone = func(*core.Packet) { completed++ }
		ctrl.Request(p)
	}
	var injectHi func()
	injectHi = func() {
		if injectedHi >= hiTotal {
			return
		}
		injectedHi++
		row := hotRows[r.Intn(len(hotRows))]
		sendAt(hiDS, row+uint64(r.Intn(dcfg.RowBytes/64))*64)
		e.Schedule(expGap(hiGapCycles), injectHi)
	}
	// Low priority: cache-miss bursts with run locality — each burst is
	// a run of sequential lines in one random row (streaming/batch
	// LDoms walking large arrays).
	var injectLo func()
	injectLo = func() {
		if injectedLo >= loTotal {
			return
		}
		base := uint64(r.Intn(1<<24)) &^ uint64(dcfg.RowBytes-1)
		for i := 0; i < lowBurst && injectedLo < loTotal; i++ {
			injectedLo++
			sendAt(loDS, base+uint64(i)*64)
		}
		e.Schedule(expGap(loGapCycles), injectLo)
	}
	injectHi()
	injectLo()
	e.StepUntil(func() bool { return completed >= cfg.Requests })

	if !controlPlane {
		return []*metric.Histogram{ctrl.QueueDelay[0]}
	}
	return []*metric.Histogram{ctrl.QueueDelay[0], ctrl.QueueDelay[1]}
}

// Speedup returns baseline-mean / high-priority-mean (the paper's 5.6×).
func (r *Fig11Result) Speedup() float64 {
	return ratio(r.Baseline.Mean(), r.High.Mean())
}

// LowPenalty returns the relative increase of low-priority delay over
// baseline (the paper's +33.6%).
func (r *Fig11Result) LowPenalty() float64 {
	return ratio(r.Low.Mean()-r.Baseline.Mean(), r.Baseline.Mean())
}

// Print renders Figure 11: means and the delay CDF.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 11: CDF of queueing delay of memory requests (inject rate %.2f, %d reqs)\n",
		r.Cfg.InjectRate, r.Cfg.Requests)
	tw := newTable(w)
	fmt.Fprintf(tw, "arm\tmean (cycles)\tp50\tp95\tp99\n")
	rows := []struct {
		name string
		h    *metric.Histogram
	}{
		{"w/o control plane", r.Baseline},
		{"high priority w/ control plane", r.High},
		{"low priority w/ control plane", r.Low},
	}
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%d\t%d\n", row.name, row.h.Mean(),
			row.h.Percentile(0.5), row.h.Percentile(0.95), row.h.Percentile(0.99))
	}
	tw.Flush()
	fmt.Fprintf(w, "high-priority queueing delay reduced %.1fx (paper: 5.6x, 15.2 -> 2.7 cycles)\n", r.Speedup())
	fmt.Fprintf(w, "low-priority queueing delay +%.1f%% (paper: +33.6%%, 15.2 -> 20.3 cycles)\n", 100*r.LowPenalty())
	fmt.Fprintln(w, "\nCDF (delay cycles -> cumulative fraction):")
	tw = newTable(w)
	fmt.Fprintf(tw, "delay\tbaseline\thigh\tlow\n")
	for _, d := range []uint64{0, 1, 2, 4, 8, 16, 24, 32, 48, 64, 96} {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n", d,
			r.Baseline.FractionAtOrBelow(d), r.High.FractionAtOrBelow(d), r.Low.FractionAtOrBelow(d))
	}
	tw.Flush()
}
