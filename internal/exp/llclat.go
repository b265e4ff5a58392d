package exp

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
)

// LLCLatencyResult verifies the paper's §7.2 latency claim: the LLC
// control plane introduces no extra cycles, because the parameter-table
// lookup overlaps the tag pipeline (OpenSPARC T1's L2 has eight pipeline
// stages; ours charges HitLatency cycles either way).
type LLCLatencyResult struct {
	HitWithCP    sim.Tick
	HitWithoutCP sim.Tick
	Samples      int
}

// LLCLatency measures hit latency with and without the control plane.
func LLCLatency(samples int) *LLCLatencyResult {
	if samples <= 0 {
		samples = 1000
	}
	measure := func(cp bool) sim.Tick {
		e := sim.NewEngine()
		ids := core.NewIDSource()
		cfg := cache.Config{
			Name: "llc", SizeBytes: 256 * 1024, Ways: 16, BlockSize: 64,
			HitLatency: 20, ControlPlane: cp,
		}
		c := cache.New(e, sim.NewClock(e, 500), ids, cfg, instantMem{e})
		// Warm one block, then hammer it.
		warm := core.NewPacket(ids, core.KindMemRead, 1, 0x1000, 64, e.Now())
		c.Request(warm)
		e.StepUntil(warm.Completed)
		var total sim.Tick
		for i := 0; i < samples; i++ {
			p := core.NewPacket(ids, core.KindMemRead, 1, 0x1000, 64, e.Now())
			c.Request(p)
			e.StepUntil(p.Completed)
			total += p.Latency()
		}
		return total / sim.Tick(samples)
	}
	return &LLCLatencyResult{
		HitWithCP:    measure(true),
		HitWithoutCP: measure(false),
		Samples:      samples,
	}
}

// ZeroOverhead reports whether the control plane added any latency.
func (r *LLCLatencyResult) ZeroOverhead() bool { return r.HitWithCP == r.HitWithoutCP }

// Print renders the comparison.
func (r *LLCLatencyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "LLC control plane latency (paper §7.2: no extra cycles)")
	tw := newTable(w)
	fmt.Fprintf(tw, "configuration\tmean hit latency\n")
	fmt.Fprintf(tw, "without control plane\t%v\n", r.HitWithoutCP)
	fmt.Fprintf(tw, "with control plane\t%v\n", r.HitWithCP)
	tw.Flush()
	if r.ZeroOverhead() {
		fmt.Fprintln(w, "control plane adds 0 cycles: lookups hidden in the hit pipeline")
	} else {
		fmt.Fprintln(w, "WARNING: control plane added latency")
	}
}

// instantMem completes fills immediately (latency is irrelevant here).
type instantMem struct{ e *sim.Engine }

func (m instantMem) Request(p *core.Packet) { p.Complete(m.e.Now()) }
