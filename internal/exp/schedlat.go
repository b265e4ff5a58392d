package exp

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metric"
	"repro/internal/prm"
	"repro/internal/sim"
)

// SchedPolicy is the .pard policy the EDF arm loads — the same text
// shipped as examples/policies/mem_edf.pard. EDF reads each LDom's
// lat_target parameter (ns) as its deadline offset; LDoms with
// lat_target 0 get a 1 ms best-effort horizon.
const SchedPolicy = "schedule mem edf\n"

// SchedLatConfig parameterizes the programmable-scheduling experiment:
// the Figure 11 two-tenant injection — a sparse latency-critical
// requester against bursty batch streams — run once on the power-on
// FR-FCFS scheduler and once with a .pard policy installing per-DS-id
// EDF. Both tenants hold EQUAL priority in both arms: the protection
// comes entirely from the latency tenant's lat_target deadline, not
// from a priority level, so batch traffic is never starved outright.
type SchedLatConfig struct {
	Injection
	LatTargetNs uint64 // the latency tenant's EDF deadline, ns
}

// DefaultSchedLatConfig drives the controller hard enough that FR-FCFS
// row-hit streaks visibly delay the sparse tenant.
func DefaultSchedLatConfig(scale Scale) SchedLatConfig {
	n := 20000
	if scale == Full {
		n = 200000
	}
	return SchedLatConfig{
		Injection:   Injection{InjectRate: 0.6, Requests: n, HighShare: 0.25, LowBurst: 8, Seed: 1},
		LatTargetNs: 500,
	}
}

// SchedLatResult holds the round-trip delay distributions (memory
// cycles) of both tenants under both scheduling algorithms.
type SchedLatResult struct {
	Cfg     SchedLatConfig
	FRHigh  *metric.Histogram // latency tenant, frfcfs
	FRLow   *metric.Histogram // batch tenant, frfcfs
	EDFHigh *metric.Histogram // latency tenant, edf (policy-installed)
	EDFLow  *metric.Histogram // batch tenant, edf
}

// SchedLat runs both arms.
func SchedLat(cfg SchedLatConfig) *SchedLatResult {
	res := &SchedLatResult{Cfg: cfg}
	res.FRHigh, res.FRLow = runSchedArm(cfg, "")
	res.EDFHigh, res.EDFLow = runSchedArm(cfg, SchedPolicy)
	return res
}

// runSchedArm boots a memory controller behind a PRM firmware, creates
// the two tenants as LDoms, optionally loads the scheduling policy,
// and drives the injection. The latency tenant's lat_target is written
// through the device tree in BOTH arms — the QoS intent is declared
// either way; only the installed algorithm decides whether the
// controller honors it.
func runSchedArm(cfg SchedLatConfig, policySrc string) (hi, lo *metric.Histogram) {
	e := sim.NewEngine()
	ids := core.NewIDSource()
	dcfg := dram.DefaultConfig()
	dcfg.ControlPlane = true
	ctrl := dram.New(e, ids, dcfg)

	fw := prm.NewFirmware(e, prm.Config{}, nil)
	fw.Mount(core.NewCPA(ctrl.Plane(), 0))
	svc, err := fw.CreateLDom(prm.LDomSpec{Name: "svc"})
	if err != nil {
		panic(err)
	}
	batch, err := fw.CreateLDom(prm.LDomSpec{Name: "batch"})
	if err != nil {
		panic(err)
	}
	if policySrc != "" {
		if err := fw.LoadPolicy("mem_edf", policySrc); err != nil {
			panic(err)
		}
	}
	latPath := fmt.Sprintf("/sys/cpa/cpa0/ldoms/ldom%d/parameters/%s", svc.DSID, dram.ParamLatTarget)
	if err := fw.FS().WriteFile(latPath, strconv.FormatUint(cfg.LatTargetNs, 10)); err != nil {
		panic(err)
	}

	return cfg.drive(e, ids, ctrl, svc.DSID, batch.DSID)
}

// TailProtection returns frfcfs-p99 / edf-p99 for the latency tenant —
// how much of the tail the deadline-ranked PIFO removes.
func (r *SchedLatResult) TailProtection() float64 {
	return ratio(float64(r.FRHigh.Percentile(0.99)), float64(r.EDFHigh.Percentile(0.99)))
}

// BatchPenalty returns the relative increase of the batch tenant's mean
// delay under EDF.
func (r *SchedLatResult) BatchPenalty() float64 {
	return ratio(r.EDFLow.Mean()-r.FRLow.Mean(), r.FRLow.Mean())
}

// Print renders the figure: per-tenant delay under both algorithms.
func (r *SchedLatResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Programmable scheduling: EDF vs FR-FCFS round-trip delay (inject rate %.2f, %d reqs, lat_target %dns)\n",
		r.Cfg.InjectRate, r.Cfg.Requests, r.Cfg.LatTargetNs)
	fmt.Fprintf(w, "policy installed through the PRM: %q (both tenants at equal priority)\n", SchedPolicy)
	tw := newTable(w)
	fmt.Fprintf(tw, "arm\tmean (cycles)\tp50\tp95\tp99\n")
	rows := []struct {
		name string
		h    *metric.Histogram
	}{
		{"latency tenant, frfcfs", r.FRHigh},
		{"latency tenant, edf", r.EDFHigh},
		{"batch tenant, frfcfs", r.FRLow},
		{"batch tenant, edf", r.EDFLow},
	}
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%d\t%d\n", row.name, row.h.Mean(),
			row.h.Percentile(0.5), row.h.Percentile(0.95), row.h.Percentile(0.99))
	}
	tw.Flush()
	fmt.Fprintf(w, "latency-tenant p99 reduced %.1fx by the EDF schedule\n", r.TailProtection())
	fmt.Fprintf(w, "batch-tenant mean delay %+.1f%% under EDF\n", 100*r.BatchPenalty())
}

// Headlines returns the tail-protection headline and the per-arm p99s.
func (r *SchedLatResult) Headlines() []Metric {
	return []Metric{
		{Name: "x_edf_tail_protection", Value: r.TailProtection()},
		{Name: "cyc_p99_latency_frfcfs", Value: float64(r.FRHigh.Percentile(0.99))},
		{Name: "cyc_p99_latency_edf", Value: float64(r.EDFHigh.Percentile(0.99))},
		{Name: "pct_batch_penalty", Value: 100 * r.BatchPenalty()},
	}
}
