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

// Injection is the Figure 11 arrival process of two tenants at one
// memory controller: a latency-critical tenant issues sparse Poisson
// single reads over four hot rows, and a batch tenant issues Poisson
// cache-miss bursts, each a run of sequential lines in one random row.
// Figure 11 and the programmable-scheduling figure both drive it.
type Injection struct {
	InjectRate float64 // fraction of peak bandwidth
	Requests   int
	HighShare  float64 // fraction of requests from the latency-critical tenant
	// LowBurst is the batch arrival burst length: streaming and batch
	// traffic reaches the controller in cache-miss bursts, while the
	// latency-critical requester issues sparse single requests.
	LowBurst int
	Seed     int64
}

// drive runs the injection against ctrl, the latency-critical tenant
// as hiDS and the batch tenant as loDS, until every request completes.
// It returns each tenant's round-trip delay distribution in memory
// cycles.
func (inj Injection) drive(e *sim.Engine, ids *core.IDSource, ctrl *dram.Controller, hiDS, loDS core.DSID) (hi, lo *metric.Histogram) {
	dcfg := ctrl.Config()
	hi, lo = metric.NewHistogram(), metric.NewHistogram()
	r := rand.New(rand.NewSource(inj.Seed))
	lowBurst := inj.LowBurst
	if lowBurst <= 0 {
		lowBurst = 1
	}
	// Peak service rate is one data burst per Burst cycles; each tenant
	// gets its share of the inject rate.
	hiGapCycles := float64(dcfg.Burst) / (inj.InjectRate * inj.HighShare)
	loGapCycles := float64(dcfg.Burst) * float64(lowBurst) / (inj.InjectRate * (1 - inj.HighShare))
	hiTotal := int(float64(inj.Requests) * inj.HighShare)
	loTotal := inj.Requests - hiTotal

	var injectedHi, injectedLo, completed int
	expGap := func(mean float64) sim.Tick {
		gap := sim.Tick(r.ExpFloat64() * mean * float64(dcfg.TCK))
		if gap == 0 {
			gap = 1
		}
		return gap
	}
	sendAt := func(ds core.DSID, addr uint64, h *metric.Histogram) {
		start := e.Now()
		p := core.NewPacket(ids, core.KindMemRead, ds, addr, 64, start)
		p.OnDone = func(pk *core.Packet) {
			completed++
			h.Observe(uint64((pk.Done - start) / dcfg.TCK))
		}
		ctrl.Request(p)
	}
	// Latency-critical tenant: sparse Poisson singles over a small hot
	// row set — its working set. A per-DS-id row buffer (ParamRowBuf)
	// keeps these rows open under interference, the VCM-style mechanism
	// of §4.2.
	hotRows := make([]uint64, 4)
	for i := range hotRows {
		hotRows[i] = uint64(r.Intn(1<<24)) &^ uint64(dcfg.RowBytes-1)
	}
	var injectHi func()
	injectHi = func() {
		if injectedHi >= hiTotal {
			return
		}
		injectedHi++
		row := hotRows[r.Intn(len(hotRows))]
		sendAt(hiDS, row+uint64(r.Intn(dcfg.RowBytes/64))*64, hi)
		e.Schedule(expGap(hiGapCycles), injectHi)
	}
	// Batch tenant: cache-miss bursts with run locality — each burst is
	// a run of sequential lines in one random row (streaming LDoms
	// walking large arrays), the row-hit streaks FR-FCFS keeps serving
	// while the sparse tenant's row misses wait.
	var injectLo func()
	injectLo = func() {
		if injectedLo >= loTotal {
			return
		}
		base := uint64(r.Intn(1<<24)) &^ uint64(dcfg.RowBytes-1)
		for i := 0; i < lowBurst && injectedLo < loTotal; i++ {
			injectedLo++
			sendAt(loDS, base+uint64(i)*64, lo)
		}
		e.Schedule(expGap(loGapCycles), injectLo)
	}
	injectHi()
	injectLo()
	e.StepUntil(func() bool { return completed >= inj.Requests })
	return hi, lo
}

// Fig11Config parameterizes the memory-queueing-delay experiment
// (paper Figure 11): the two-tenant injection drives the memory
// controller at a given utilization with a high/low priority mix, and
// the queueing delay distribution is compared between the baseline
// controller (no control plane, one FR-FCFS queue) and the PARD
// controller (priority queues + per-DS-id row buffers).
type Fig11Config struct {
	Injection      // the paper's representative InjectRate is 0.44
	RowBuffers int // 2 = PARD's extra per-bank row buffer; 1 disables it
}

// DefaultFig11Config matches the paper's representative case.
func DefaultFig11Config(scale Scale) Fig11Config {
	n := 20000
	if scale == Full {
		n = 200000
	}
	return Fig11Config{
		Injection:  Injection{InjectRate: 0.44, Requests: n, HighShare: 0.5, LowBurst: 4, Seed: 1},
		RowBuffers: 2,
	}
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
	res.Baseline = fig11QueueDelay(cfg, false)[0]
	withCP := fig11QueueDelay(cfg, true)
	res.High, res.Low = withCP[0], withCP[1]
	return res
}

// fig11QueueDelay drives one controller, with or without the control
// plane, and returns its per-priority-level queueing-delay histograms:
// one level without the control plane, [high, low] with it.
func fig11QueueDelay(cfg Fig11Config, controlPlane bool) []*metric.Histogram {
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
	cfg.drive(e, ids, ctrl, hiDS, loDS)
	return ctrl.QueueDelay
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
