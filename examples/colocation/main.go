// Colocation: the paper's headline scenario (§7.1.2). A latency-critical
// memcached LDom shares a four-core server with three STREAM LDoms.
// Without PARD rules the tail latency collapses; with the paper's
// "miss_rate > 30% ⇒ grow LLC partition" trigger the server runs at
// full utilization while memcached stays near its solo latency.
package main

import (
	"fmt"

	"repro/pard"
)

const (
	krps    = 20.0
	warmup  = 10 * pard.Millisecond
	measure = 40 * pard.Millisecond
)

func run(withTrigger bool) (p95 float64, util float64, trigFired uint64) {
	sys := pard.NewSystem(pard.DefaultConfig())

	// LDom0: the latency-critical service, high memory priority.
	// LDom1..3: batch co-runners that thrash the shared LLC.
	mc, err := pard.Colocation{RPS: krps * 1000, Streams: true}.Provision(sys)
	if err != nil {
		panic(err)
	}
	if withTrigger {
		// The paper's pardtrigger invocation, against the LLC control
		// plane (cpa0). 300 is 30.0% in the table's 0.1% units.
		out := sys.Firmware.MustSh(
			"pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half")
		fmt.Println("  ", out)
	}

	sys.Run(warmup)
	mc.ResetStats()
	sys.Run(measure)
	return mc.TailLatencyMs(0.95), sys.CPUUtilization(), sys.Firmware.TriggersHandled
}

func main() {
	fmt.Printf("memcached at %.0f KRPS co-located with 3x STREAM\n\n", krps)

	fmt.Println("shared, no PARD rules:")
	p95, util, _ := run(false)
	fmt.Printf("   p95 = %.2f ms at %.0f%% CPU utilization\n\n", p95, 100*util)

	fmt.Println("shared, with the trigger => action rule:")
	p95t, utilT, fired := run(true)
	fmt.Printf("   p95 = %.2f ms at %.0f%% CPU utilization (trigger handled %d time(s))\n\n",
		p95t, 100*utilT, fired)

	fmt.Printf("PARD keeps the whole server busy while cutting the tail %.0fx\n", p95/p95t)
}
