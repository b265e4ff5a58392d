package exp

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Fig8Config parameterizes the tail-latency sweep (paper Figure 8):
// memcached's 95th-percentile response time across offered loads, for
// the solo / shared / trigger arms.
type Fig8Config struct {
	KRPS    []float64 // offered loads in kilo-requests/second
	Warm    sim.Tick
	Measure sim.Tick
	Arms    []Arm
}

// DefaultFig8Config mirrors the paper's x-axis.
func DefaultFig8Config(scale Scale) Fig8Config {
	cfg := Fig8Config{
		KRPS: []float64{10, 12.5, 15, 17.5, 20, 22.5},
		Arms: []Arm{ArmSolo, ArmShared, ArmTrigger},
	}
	switch scale {
	case Full:
		// 160 ms per point yields 1600–3600 requests per arm/load —
		// ample for a stable p95 — while the 18-point sweep stays
		// within minutes of wall time.
		cfg.Warm, cfg.Measure = 40*sim.Millisecond, 160*sim.Millisecond
	default:
		cfg.Warm, cfg.Measure = 15*sim.Millisecond, 60*sim.Millisecond
	}
	return cfg
}

// Fig8Point is one (arm, load) measurement.
type Fig8Point struct {
	Arm         Arm
	KRPS        float64
	P95Ms       float64
	MeanMs      float64
	Completed   uint64
	Utilization float64 // whole-server CPU utilization
	MissRate    uint64  // memcached LLC miss rate, 0.1% units
}

// Fig8Result is the full sweep.
type Fig8Result struct {
	Cfg    Fig8Config
	Points []Fig8Point
}

// Fig8 runs the sweep. Each point is an independent deterministic
// simulation.
func Fig8(cfg Fig8Config) *Fig8Result {
	res := &Fig8Result{Cfg: cfg}
	for _, arm := range cfg.Arms {
		for _, krps := range cfg.KRPS {
			c := newColocation(krps*1000, arm, 0)
			c.run(cfg.Warm, cfg.Measure)
			res.Points = append(res.Points, Fig8Point{
				Arm:         arm,
				KRPS:        krps,
				P95Ms:       c.MC.TailLatencyMs(0.95),
				MeanMs:      c.MC.MeanLatencyMs(),
				Completed:   c.MC.Completed,
				Utilization: c.Sys.CPUUtilization(),
				MissRate:    c.Sys.LLC.MissRate(0),
			})
		}
	}
	return res
}

// point finds a measurement.
func (r *Fig8Result) point(arm Arm, krps float64) *Fig8Point {
	for i := range r.Points {
		if r.Points[i].Arm == arm && r.Points[i].KRPS == krps {
			return &r.Points[i]
		}
	}
	return nil
}

// UtilizationGain returns shared-arm utilization / solo utilization at
// the highest common load — the paper's "up to 4x CPU utilization"
// headline.
func (r *Fig8Result) UtilizationGain() float64 {
	k := r.Cfg.KRPS[len(r.Cfg.KRPS)-1]
	solo, trig := r.point(ArmSolo, k), r.point(ArmTrigger, k)
	if solo == nil || trig == nil {
		return 0
	}
	return ratio(trig.Utilization, solo.Utilization)
}

// Print renders the Figure 8 series.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: memcached 95th-percentile response time vs offered load")
	tw := newTable(w)
	fmt.Fprintf(tw, "KRPS")
	for _, arm := range r.Cfg.Arms {
		fmt.Fprintf(tw, "\t%s p95(ms)\t util\t missrate", arm)
	}
	fmt.Fprintln(tw)
	for _, k := range r.Cfg.KRPS {
		fmt.Fprintf(tw, "%.1f", k)
		for _, arm := range r.Cfg.Arms {
			p := r.point(arm, k)
			if p == nil {
				fmt.Fprintf(tw, "\t-\t-\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.2f\t %.0f%%\t %d.%d%%", p.P95Ms, 100*p.Utilization, p.MissRate/10, p.MissRate%10)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "utilization gain (trigger vs solo at max load): %.1fx (paper: up to 4x)\n", r.UtilizationGain())
	fmt.Fprintln(w, "expected shape: shared explodes near 20 KRPS; trigger stays near solo (paper: 62.6ms vs ~1.2ms)")
}
